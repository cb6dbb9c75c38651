package adversary

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestVectorStringRoundTrip(t *testing.T) {
	vec := Vector{
		{Victim: 0, AtAction: 3, KeepWork: true, Prefix: 1},
		{Victim: 2, Round: 9},
	}
	got, err := ParseVector(vec.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vec) {
		t.Fatalf("got %v, want %v", got, vec)
	}
	if empty, err := ParseVector("-"); err != nil || empty != nil {
		t.Fatalf("ParseVector(-) = %v, %v", empty, err)
	}
	if Vector(nil).String() != "-" {
		t.Fatalf("empty vector renders %q", Vector(nil).String())
	}
	if _, err := ParseVector("0@a1:keep:p0,0@a2:keep:p0"); err == nil {
		t.Fatal("duplicate victim accepted")
	}
	if _, err := ParseVector("0@a1:keep:p0,2@x"); err == nil {
		t.Fatal("vector with a malformed choice accepted")
	}
	// Crashes counts crash-kind choices only; Canonical sorts a copy.
	mixed := Vector{{Victim: 4, DropNth: 2}, {Victim: 2, Round: 3, RestartAt: 5}, {Victim: 3, Round: 1, Slow: 2},
		{Victim: 0, AtAction: 2, Omit: true}, {Victim: 1, AtAction: 4, KeepWork: true}}
	if n := mixed.Crashes(); n != 2 {
		t.Fatalf("Crashes() = %d, want 2", n)
	}
	want := "0@a2:omit:p0,1@a4:keep:p0,2@r3:restart@r5,3@r1:slow:2,4@d2"
	if got := mixed.Canonical().String(); got != want || mixed[0].Victim != 4 {
		t.Fatalf("Canonical() = %s (receiver now %s), want %s on a copy", got, mixed, want)
	}
}

// TestChoiceStringRoundTrip covers every fault kind of the grammar: round
// and action crashes with prefix or bitmask delivery, omission, restart
// suffixes, slowdowns and drops.
func TestChoiceStringRoundTrip(t *testing.T) {
	cases := []struct {
		c Choice
		s string
	}{
		{Choice{Victim: 1, Round: 7}, "1@r7"},
		{Choice{Victim: 0, Round: 0}, "0@r0"},
		{Choice{Victim: 2, AtAction: 5, KeepWork: true, Prefix: 3}, "2@a5:keep:p3"},
		{Choice{Victim: 3, AtAction: 1, KeepWork: false, Prefix: 0}, "3@a1:lose:p0"},
		{Choice{Victim: 4, AtAction: 9, KeepWork: false, Bits: true, Mask: 0xb}, "4@a9:lose:mb"},
		{Choice{Victim: 0, AtAction: 7, Omit: true, Prefix: 1}, "0@a7:omit:p1"},
		{Choice{Victim: 1, AtAction: 2, Omit: true, Bits: true, Mask: 0x5}, "1@a2:omit:m5"},
		{Choice{Victim: 0, Round: 3, RestartAt: 6}, "0@r3:restart@r6"},
		{Choice{Victim: 2, AtAction: 4, KeepWork: true, RestartAt: 9}, "2@a4:keep:p0:restart@r9"},
		{Choice{Victim: 2, AtAction: 4, Bits: true, Mask: 0xb, RestartAt: 9}, "2@a4:lose:mb:restart@r9"},
		{Choice{Victim: 0, Round: 0, Slow: 4}, "0@r0:slow:4"},
		{Choice{Victim: 1, Round: 5, Slow: 1}, "1@r5:slow:1"},
		{Choice{Victim: 3, DropNth: 2}, "3@d2"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.s {
			t.Fatalf("String(%+v) = %q, want %q", tc.c, got, tc.s)
		}
		got, err := ParseChoice(tc.s)
		if err != nil {
			t.Fatalf("ParseChoice(%q): %v", tc.s, err)
		}
		if got != tc.c {
			t.Fatalf("round trip %q: got %+v, want %+v", tc.s, got, tc.c)
		}
	}
	bad := []string{
		"", "x", "1@", "1@z3", "1@a0:keep:p0", "1@a2:maybe:p0", "1@a2:keep:q1", "1@a2:keep", "-1@r3", "1@r-2",
		"1@d0", "1@d-2", "1@dx",
		"1@r3:restart@r3", "1@r3:restart@r2", "1@r3:restart@x", "1@r3:restart@r-4",
		"1@r3:slow:0", "1@r3:slow:x", "1@r3:fast:2", "1@r1:slow:2:more",
		"1@a2:omit:p1:restart@r5", // omission never crashes, nothing to restart
		"1@a2:keep:p1:restart@r0", "1@a2:keep:p1:restart@5", "1@a0:omit:p1",
	}
	for _, s := range bad {
		if c, err := ParseChoice(s); err == nil {
			t.Fatalf("ParseChoice(%q) accepted as %+v", s, c)
		}
	}
}

// TestVectorValidate pins the well-formedness rules: one choice per victim,
// no negative victim, and a choice carries exactly the fields of one fault
// kind.
func TestVectorValidate(t *testing.T) {
	bad := []Vector{
		{{Victim: 0, AtAction: 1}, {Victim: 0, Round: 3}},
		{{Victim: -1, Round: 0}},
		{{Victim: 0, DropNth: 1, Slow: 2}},
		{{Victim: 0, DropNth: 1, AtAction: 3}},
		{{Victim: 0, DropNth: 1, KeepWork: true}},
		{{Victim: 0, Slow: 2, RestartAt: 5}},
		{{Victim: 0, Slow: 2, Prefix: 1}},
		{{Victim: 0, Omit: true}}, // omission without action trigger
		{{Victim: 0, AtAction: 2, Omit: true, KeepWork: true}},
		{{Victim: 0, AtAction: 2, Omit: true, RestartAt: 5}},
		{{Victim: 0, Round: 4, RestartAt: 4}},
		{{Victim: 0, DropNth: -1}},
	}
	for _, v := range bad {
		if err := v.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", v)
		}
	}
	good := []Vector{
		{{Victim: 1, AtAction: 2, Prefix: 1}, {Victim: 0, Round: 4}},
		{{Victim: 0, AtAction: 2, Omit: true, Prefix: 1}, {Victim: 1, DropNth: 3}},
		{{Victim: 0, Round: 2, RestartAt: 5}, {Victim: 1, Round: 0, Slow: 3}},
	}
	for _, v := range good {
		if err := v.Validate(); err != nil {
			t.Fatalf("Validate(%v): %v", v, err)
		}
	}
}

// TestAdversaryActionCrash pins the universal adversary's action-trigger
// semantics: the Nth committed action of the victim crashes, with the
// chosen delivery prefix over the virtual send list.
func TestAdversaryActionCrash(t *testing.T) {
	vec := Vector{{Victim: 1, AtAction: 2, KeepWork: true, Prefix: 2}}
	adv := vec.Adversary()
	act := sim.Action{Sends: []sim.Send{{To: 0}, {To: 2}, {To: 3}}}
	if v := adv.OnAction(0, 0, act); v.Crash {
		t.Fatal("crashed wrong victim")
	}
	if v := adv.OnAction(0, 1, act); v.Crash {
		t.Fatal("crashed on first action, want second")
	}
	v := adv.OnAction(1, 1, act)
	if !v.Crash || !v.KeepWork {
		t.Fatalf("verdict %+v, want crash keeping work", v)
	}
	if len(v.Deliver) != 2 || !v.Deliver[0] || !v.Deliver[1] {
		t.Fatalf("Deliver = %v, want 2-true prefix", v.Deliver)
	}
	if adv.OverDelivered() {
		t.Fatal("prefix 2 of 3 sends flagged as over-delivery")
	}
}

func TestAdversaryOverDelivery(t *testing.T) {
	adv := Vector{{Victim: 0, AtAction: 1, Prefix: 5}}.Adversary()
	v := adv.OnAction(0, 0, sim.Action{Sends: []sim.Send{{To: 1}}})
	if !v.Crash || len(v.Deliver) != 1 {
		t.Fatalf("verdict %+v", v)
	}
	if !adv.OverDelivered() {
		t.Fatal("prefix past the send list not flagged")
	}

	bits := Vector{{Victim: 0, AtAction: 1, Bits: true, Mask: 0b101}}.Adversary()
	v = bits.OnAction(0, 0, sim.Action{Sends: []sim.Send{{To: 1}, {To: 2}, {To: 3}}})
	if len(v.Deliver) != 3 || !v.Deliver[0] || v.Deliver[1] || !v.Deliver[2] {
		t.Fatalf("bitmask Deliver = %v", v.Deliver)
	}
	if bits.OverDelivered() {
		t.Fatal("in-range mask flagged")
	}
	wide := Vector{{Victim: 0, AtAction: 1, Bits: true, Mask: 0b100}}.Adversary()
	wide.OnAction(0, 0, sim.Action{Sends: []sim.Send{{To: 1}}})
	if !wide.OverDelivered() {
		t.Fatal("mask bits past the send list not flagged")
	}
}

// TestAdversaryExtendedFaults pins the universal adversary's non-crash
// verdicts: omission (suppress sends, live on), slowdown (fire-once Slow
// verdict from the trigger round), drop (Nth delivery to the victim) and the
// restart schedule announced to the engine.
func TestAdversaryExtendedFaults(t *testing.T) {
	act := sim.Action{Sends: []sim.Send{{To: 1}, {To: 2}}}

	omit := Vector{{Victim: 0, AtAction: 1, Omit: true, Prefix: 1}}.Adversary()
	v := omit.OnAction(0, 0, act)
	if v.Crash || !v.Omit || len(v.Deliver) != 1 || !v.Deliver[0] {
		t.Fatalf("omit verdict %+v", v)
	}

	slow := Vector{{Victim: 1, Round: 3, Slow: 4}}.Adversary()
	if v := slow.OnAction(2, 1, act); v.Slow != 0 {
		t.Fatalf("slowdown fired before its round: %+v", v)
	}
	if v := slow.OnAction(3, 1, act); v.Slow != 4 {
		t.Fatalf("slowdown verdict %+v, want Slow=4", v)
	}
	if v := slow.OnAction(9, 1, act); v.Slow != 0 {
		t.Fatalf("slowdown fired twice: %+v", v)
	}

	drop := Vector{{Victim: 2, DropNth: 2}}.Adversary()
	m := sim.Message{To: 2}
	if !drop.OnDeliver(0, m) {
		t.Fatal("first delivery dropped, want second")
	}
	if drop.OnDeliver(0, m) {
		t.Fatal("second delivery to victim not dropped")
	}
	if !drop.OnDeliver(0, m) {
		t.Fatal("third delivery dropped")
	}
	if drop.UnfiredFaults() {
		t.Fatal("fired drop flagged as unfired")
	}

	unfired := Vector{{Victim: 2, DropNth: 9}}.Adversary()
	unfired.OnDeliver(0, m)
	if !unfired.UnfiredFaults() {
		t.Fatal("planned drop never fired, not flagged")
	}

	rs := Vector{{Victim: 0, Round: 2, RestartAt: 6}, {Victim: 1, Round: 3, RestartAt: 6}}.Adversary()
	if got := rs.ScheduledRestarts(6); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("ScheduledRestarts(6) = %v", got)
	}
	if n := rs.NextScheduledRestart(-1); n != 6 {
		t.Fatalf("NextScheduledRestart(-1) = %d", n)
	}
	if n := rs.NextScheduledRestart(6); n != -1 {
		t.Fatalf("NextScheduledRestart(6) = %d", n)
	}
}

// TestAdversaryReset rewinds a replayed adversary: Reset gives the verdicts
// of a fresh one again.
func TestAdversaryReset(t *testing.T) {
	vec := Vector{{Victim: 0, Round: 1}, {Victim: 1, AtAction: 2}, {Victim: 2, DropNth: 1}}
	adv := vec.Adversary()
	for range 2 {
		if adv.OnAction(0, 1, sim.Action{}).Crash || !adv.OnAction(1, 1, sim.Action{}).Crash ||
			adv.OnDeliver(0, sim.Message{To: 2}) {
			t.Fatal("verdicts differ from a fresh adversary's")
		}
		adv.Reset(vec)
	}
}
