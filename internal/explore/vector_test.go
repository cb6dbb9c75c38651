package explore

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// The grammar and Validate rules themselves are pinned case by case in
// internal/adversary. The tests here pin what explore relies on of them:
// every choice its Space can decode renders, parses back and validates, the
// renamings of SymmetryWitness are screened by Validate, and the adversary a
// walker reuses through Reset forgets the vector it replayed before.

// spaceChoices lists every per-victim choice of the normalized space, in
// decode order.
func spaceChoices(t *testing.T, sp Space, victim int) []Choice {
	t.Helper()
	norm, err := sp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Choice, norm.perCrash())
	for d := range out {
		out[d] = norm.decodeChoice(victim, d)
	}
	return out
}

// assertRoundTrip checks that every choice of sp, and every vector of it,
// survives String and back: reports print vectors that replays parse.
func assertRoundTrip(t *testing.T, sp Space) {
	t.Helper()
	for _, c := range spaceChoices(t, sp, 2) {
		got, err := adversary.ParseChoice(c.String())
		if err != nil {
			t.Fatalf("ParseChoice(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %q: got %+v, want %+v", c.String(), got, c)
		}
	}
	norm, err := sp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range norm.count() {
		vec := norm.vectorAt(i)
		got, err := adversary.ParseVector(vec.String())
		if err != nil {
			t.Fatalf("index %d: ParseVector(%q): %v", i, vec.String(), err)
		}
		if !reflect.DeepEqual(got, vec) {
			t.Fatalf("index %d: round trip %q: got %v", i, vec.String(), got)
		}
	}
}

// TestChoiceStringRoundTrip round-trips the crash-only space: action crashes
// keeping or losing work at every prefix, in prefix and bitmask delivery
// form, and round crashes.
func TestChoiceStringRoundTrip(t *testing.T) {
	sp := NewSpace(4, 2, 3, 2)
	sp.Rounds = []int64{0, 5}
	assertRoundTrip(t, sp)
	for _, c := range spaceChoices(t, sp, 1) {
		if c.AtAction == 0 {
			continue
		}
		c.Bits, c.Mask, c.Prefix = true, uint64(c.Prefix)<<2|0x1, 0
		got, err := adversary.ParseChoice(c.String())
		if err != nil || got != c {
			t.Fatalf("bitmask round trip %q: got %+v, %v; want %+v", c.String(), got, err, c)
		}
	}
}

// TestExtendedChoiceStringRoundTrip round-trips the full fault alphabet:
// omissions, crashes with restart, slowdowns and drops besides the crashes.
func TestExtendedChoiceStringRoundTrip(t *testing.T) {
	assertRoundTrip(t, extendedSpace())
}

// extendedSpace draws every fault kind; its round triggers are past round
// 0, so each choice carries a nonzero field of its own kind.
func extendedSpace() Space {
	return Space{
		Victims:       []int{0, 1, 2},
		MaxCrashes:    2,
		Actions:       []int{1, 3},
		KeepWork:      []bool{false, true},
		Prefixes:      []int{0, 2},
		Omissions:     true,
		Rounds:        []int64{1, 4},
		RestartDelays: []int64{1, 3},
		SlowFactors:   []int{2, 5},
		Drops:         []int{1, 2},
	}
}

// TestVectorValidate pins the screen SymmetryWitness puts on its renamings:
// a transposition of a two-fault vector's victims stays valid, while
// renaming one victim onto the other, or onto a negative PID, is rejected.
func TestVectorValidate(t *testing.T) {
	sp := NewSpace(3, 2, 2, 1)
	sp.Rounds = []int64{0, 3}
	norm, err := sp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for i := range norm.count() {
		vec := norm.vectorAt(i)
		if len(vec) != 2 {
			continue
		}
		pairs++
		a, b := vec[0].Victim, vec[1].Victim
		if err := renameVector(vec, map[int]int{a: b, b: a}).Validate(); err != nil {
			t.Fatalf("transposed %s: %v", vec, err)
		}
		if err := renameVector(vec, map[int]int{a: b}).Validate(); err == nil {
			t.Fatalf("%s with %d renamed to %d: duplicate victim accepted", vec, a, b)
		}
		if err := renameVector(vec, map[int]int{b: -1}).Validate(); err == nil {
			t.Fatalf("%s with %d renamed to -1: negative victim accepted", vec, b)
		}
	}
	if pairs == 0 {
		t.Fatal("space has no two-fault vectors")
	}
}

// TestExtendedVectorValidate pins the kind-coherence rules over the full
// fault alphabet: every choice the space decodes is valid, and grafting a
// field of another kind onto it is rejected — a drop index onto anything
// else, a slowdown onto a crash with or without restart, an omission onto a
// choice other than a work-losing action crash, and a restart at or before
// a round crash's round.
func TestExtendedVectorValidate(t *testing.T) {
	for _, c := range spaceChoices(t, extendedSpace(), 0) {
		if err := (Vector{c}).Validate(); err != nil {
			t.Fatalf("Validate(%v): %v", c, err)
		}
		var bad []Choice
		if c.DropNth == 0 {
			g := c
			g.DropNth = 1
			bad = append(bad, g)
		}
		if c.Slow == 0 && (c.AtAction > 0 || c.RestartAt > 0) {
			g := c
			g.Slow = 2
			bad = append(bad, g)
		}
		if !c.Omit && (c.AtAction == 0 || c.KeepWork) {
			g := c
			g.Omit = true
			bad = append(bad, g)
		}
		if c.AtAction == 0 && c.Slow == 0 && c.DropNth == 0 {
			for at := c.Round; at > 0; at-- {
				g := c
				g.RestartAt = at
				bad = append(bad, g)
			}
		}
		if len(bad) == 0 {
			t.Fatalf("no graft for %v", c)
		}
		for _, g := range bad {
			if err := (Vector{g}).Validate(); err == nil {
				t.Fatalf("Validate accepted %+v, grafted from %v", g, c)
			}
		}
	}
}

// TestAdversaryRoundCrash replays round triggers through an adversary reused
// the way a walker's harness reuses it: whatever vector Reset replaced,
// the round's victims come back sorted, nil for a round without one, and
// the chain of next crash rounds ends at the last.
func TestAdversaryRoundCrash(t *testing.T) {
	vec := Vector{{Victim: 2, Round: 4}, {Victim: 0, Round: 4}, {Victim: 1, Round: 9}}
	var adv adversary.Adversary
	for _, before := range []Vector{
		nil,
		{{Victim: 1, Round: 5}, {Victim: 3, Round: 4}},
		{{Victim: 0, AtAction: 1}, {Victim: 2, Round: 2, RestartAt: 7}},
	} {
		adv.Reset(before)
		adv.OnAction(0, 0, sim.Action{})
		adv.Reset(vec)
		if got := adv.ScheduledCrashes(4); !reflect.DeepEqual(got, []int{0, 2}) {
			t.Fatalf("after %s: ScheduledCrashes(4) = %v", before, got)
		}
		if got := adv.ScheduledCrashes(5); got != nil {
			t.Fatalf("after %s: ScheduledCrashes(5) = %v", before, got)
		}
		for _, c := range []struct{ after, want int64 }{{-1, 4}, {4, 9}, {9, -1}} {
			if n := adv.NextScheduledCrash(c.after); n != c.want {
				t.Fatalf("after %s: NextScheduledCrash(%d) = %d, want %d", before, c.after, n, c.want)
			}
		}
		if got := adv.ScheduledRestarts(7); got != nil {
			t.Fatalf("after %s: ScheduledRestarts(7) = %v", before, got)
		}
	}
}
