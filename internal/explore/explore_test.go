package explore

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestChoiceStringRoundTrip(t *testing.T) {
	cases := []Choice{
		{Victim: 1, Round: 7},
		{Victim: 0, Round: 0},
		{Victim: 2, AtAction: 5, KeepWork: true, Prefix: 3},
		{Victim: 3, AtAction: 1, KeepWork: false, Prefix: 0},
		{Victim: 4, AtAction: 9, KeepWork: false, Bits: true, Mask: 0xb},
	}
	for _, c := range cases {
		got, err := ParseChoice(c.String())
		if err != nil {
			t.Fatalf("ParseChoice(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %q: got %+v, want %+v", c.String(), got, c)
		}
	}
	for _, bad := range []string{"", "x", "1@", "1@z3", "1@a0:keep:p0", "1@a2:maybe:p0", "1@a2:keep:q1", "1@a2:keep", "-1@r3", "1@r-2"} {
		if _, err := ParseChoice(bad); err == nil {
			t.Fatalf("ParseChoice(%q) accepted", bad)
		}
	}
}

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
}

// TestExtendedChoiceStringRoundTrip covers the fault-alphabet extensions of
// the grammar: omission, restart suffixes, slowdowns and drops.
func TestExtendedChoiceStringRoundTrip(t *testing.T) {
	cases := []struct {
		c Choice
		s string
	}{
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

// TestExtendedVectorValidate pins the kind-coherence rules: a choice must
// carry exactly the fields of one fault kind.
func TestExtendedVectorValidate(t *testing.T) {
	bad := []Vector{
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
		{{Victim: 0, AtAction: 2, Omit: true, Prefix: 1}, {Victim: 1, DropNth: 3}},
		{{Victim: 0, Round: 2, RestartAt: 5}, {Victim: 1, Round: 0, Slow: 3}},
	}
	for _, v := range good {
		if err := v.Validate(); err != nil {
			t.Fatalf("Validate(%v): %v", v, err)
		}
	}
}

func TestVectorValidate(t *testing.T) {
	if err := (Vector{{Victim: 0, AtAction: 1}, {Victim: 0, Round: 3}}).Validate(); err == nil {
		t.Fatal("duplicate victim accepted")
	}
	if err := (Vector{{Victim: -1, Round: 0}}).Validate(); err == nil {
		t.Fatal("negative victim accepted")
	}
	if err := (Vector{{Victim: 1, AtAction: 2, Prefix: 1}, {Victim: 0, Round: 4}}).Validate(); err != nil {
		t.Fatal(err)
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

func TestAdversaryRoundCrash(t *testing.T) {
	adv := Vector{{Victim: 2, Round: 4}, {Victim: 0, Round: 4}, {Victim: 1, Round: 9}}.Adversary()
	if got := adv.ScheduledCrashes(4); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("ScheduledCrashes(4) = %v", got)
	}
	if got := adv.ScheduledCrashes(5); got != nil {
		t.Fatalf("ScheduledCrashes(5) = %v", got)
	}
	if n := adv.NextScheduledCrash(-1); n != 4 {
		t.Fatalf("NextScheduledCrash(-1) = %d", n)
	}
	if n := adv.NextScheduledCrash(4); n != 9 {
		t.Fatalf("NextScheduledCrash(4) = %d", n)
	}
	if n := adv.NextScheduledCrash(9); n != -1 {
		t.Fatalf("NextScheduledCrash(9) = %d", n)
	}
}

// TestSpaceUnrankBijection checks that VectorAt is a bijection onto
// well-formed canonical vectors: Count() distinct vectors, victims strictly
// increasing, every field inside its domain.
func TestSpaceUnrankBijection(t *testing.T) {
	sp := Space{
		Victims:    []int{0, 1, 3},
		MaxCrashes: 2,
		Actions:    []int{1, 2, 4},
		KeepWork:   []bool{false, true},
		Prefixes:   []int{0, 2},
		Rounds:     []int64{0, 5},
	}
	norm, err := sp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	// perCrash = 3*2*2 + 2 = 14; count = 1 + 3*14 + 3*14² = 631.
	if got := norm.count(); got != 631 {
		t.Fatalf("count = %d, want 631", got)
	}
	seen := make(map[string]bool)
	for i := int64(0); i < norm.count(); i++ {
		vec := norm.vectorAt(i)
		if err := vec.Validate(); err != nil {
			t.Fatalf("index %d: %v", i, err)
		}
		for j := 1; j < len(vec); j++ {
			if vec[j].Victim <= vec[j-1].Victim {
				t.Fatalf("index %d: victims not increasing: %s", i, vec)
			}
		}
		key := vec.String()
		if seen[key] {
			t.Fatalf("index %d: duplicate vector %s", i, key)
		}
		seen[key] = true
	}
	if len(seen) != 631 {
		t.Fatalf("distinct vectors = %d, want 631", len(seen))
	}
}

// TestExtendedSpaceUnrankBijection extends the bijection check to the full
// fault alphabet: every block of the per-victim digit — action crash,
// omission, round crash, crash+restart, slowdown, drop — decodes to a valid
// canonical vector, all distinct, with every kind represented the expected
// number of times.
func TestExtendedSpaceUnrankBijection(t *testing.T) {
	sp := Space{
		Victims:       []int{0, 1},
		MaxCrashes:    2,
		Actions:       []int{1, 2},
		KeepWork:      []bool{false, true},
		Prefixes:      []int{0, 1},
		Omissions:     true,
		Rounds:        []int64{0, 3},
		RestartDelays: []int64{2},
		SlowFactors:   []int{2, 4},
		Drops:         []int{1, 3},
	}
	norm, err := sp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	// perCrash = 2*2*2 + 2*2 + 2 + 2*1 + 2*2 + 2 = 22;
	// count = 1 + C(2,1)*22 + C(2,2)*22² = 529.
	if got := norm.count(); got != 529 {
		t.Fatalf("count = %d, want 529", got)
	}
	seen := make(map[string]bool)
	kinds := make(map[string]int)
	for i := int64(0); i < norm.count(); i++ {
		vec := norm.vectorAt(i)
		if err := vec.Validate(); err != nil {
			t.Fatalf("index %d: %v", i, err)
		}
		for j := 1; j < len(vec); j++ {
			if vec[j].Victim <= vec[j-1].Victim {
				t.Fatalf("index %d: victims not increasing: %s", i, vec)
			}
		}
		key := vec.String()
		if seen[key] {
			t.Fatalf("index %d: duplicate vector %s", i, key)
		}
		seen[key] = true
		for _, c := range vec {
			switch {
			case c.DropNth > 0:
				kinds["drop"]++
			case c.Slow > 0:
				kinds["slow"]++
			case c.Omit:
				kinds["omit"]++
			case c.RestartAt > 0:
				kinds["restart"]++
			case c.AtAction > 0:
				kinds["action-crash"]++
			default:
				kinds["round-crash"]++
			}
		}
	}
	// Per-victim, each kind block appears once alone and 22 times crossed
	// with the other victim's 22 choices: weight = 1 + 22 = 23 per entry.
	want := map[string]int{
		"action-crash": 2 * 8 * 23,
		"omit":         2 * 4 * 23,
		"round-crash":  2 * 2 * 23,
		"restart":      2 * 2 * 23,
		"slow":         2 * 4 * 23,
		"drop":         2 * 2 * 23,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kind histogram %v, want %v", kinds, want)
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

func TestSpaceNormalizeErrors(t *testing.T) {
	if _, err := (Space{Victims: []int{1, 1}, MaxCrashes: 1, Actions: []int{1}}).normalize(); err == nil {
		t.Fatal("duplicate victims accepted")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1}).normalize(); err == nil {
		t.Fatal("empty choice set accepted")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1, Actions: []int{0}}).normalize(); err == nil {
		t.Fatal("zero action index accepted")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1, Omissions: true}).normalize(); err == nil {
		t.Fatal("omissions without actions accepted")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1, RestartDelays: []int64{1}, Drops: []int{1}}).normalize(); err == nil {
		t.Fatal("restart delays without rounds accepted")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1, Rounds: []int64{0}, RestartDelays: []int64{0}}).normalize(); err == nil {
		t.Fatal("zero restart delay accepted")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1, Rounds: []int64{0}, SlowFactors: []int{1}}).normalize(); err == nil {
		t.Fatal("slow factor 1 accepted (identity slowdown)")
	}
	if _, err := (Space{Victims: []int{0}, MaxCrashes: 1, Drops: []int{0}}).normalize(); err == nil {
		t.Fatal("zero drop index accepted")
	}
}

func TestEnumerateCertifiesProtocolA(t *testing.T) {
	tg, err := NewTarget("a", 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	depth, err := tg.DefaultDepth()
	if err != nil {
		t.Fatal(err)
	}
	if depth < 3 {
		t.Fatalf("probe depth = %d, implausibly small", depth)
	}
	sp := NewSpace(3, 2, depth, 3)
	rep, err := tg.Enumerate(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules != sp.Count() {
		t.Fatalf("certified %d of %d schedules", rep.Schedules, sp.Count())
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.WorstEffort.Value <= 0 || rep.WorstEffort.Vector == "" {
		t.Fatalf("no worst effort recorded: %+v", rep.WorstEffort)
	}
	// The worst schedule must be a replayable artifact: parsing and
	// replaying it reproduces the extreme value.
	worst, err := ParseVector(rep.WorstEffort.Vector)
	if err != nil {
		t.Fatal(err)
	}
	if again := tg.Certify(worst); again.Result.Effort() != rep.WorstEffort.Value {
		t.Fatalf("replay of %s gives effort %d, recorded %d",
			rep.WorstEffort.Vector, again.Result.Effort(), rep.WorstEffort.Value)
	}
	// Crash histogram covers the full f range and sums to the space.
	var sum int64
	for _, c := range rep.ByCrashes {
		sum += c
	}
	if sum != rep.Schedules || len(rep.ByCrashes) != 3 {
		t.Fatalf("ByCrashes = %v (schedules %d)", rep.ByCrashes, rep.Schedules)
	}
}

// TestEnumerateJobsInvariance pins the acceptance criterion: reports (and
// their rendered text) are byte-identical for every worker count.
func TestEnumerateJobsInvariance(t *testing.T) {
	tg, err := NewTarget("b", 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpace(3, 2, 6, 2)
	one, err := tg.Enumerate(sp, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 4, 7} {
		many, err := tg.Enumerate(sp, Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, many) {
			t.Fatalf("jobs=%d report differs:\n%+v\nvs\n%+v", jobs, one, many)
		}
		if one.Text() != many.Text() {
			t.Fatalf("jobs=%d text differs", jobs)
		}
	}
}

// TestEnumerateDetectsViolations plants an absurd bound and checks that the
// walk reports it with a replayable vector.
func TestEnumerateDetectsViolations(t *testing.T) {
	tg, err := NewTarget("b", 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg.Bounds = Bounds{Work: 1} // every run violates this
	rep, err := tg.Enumerate(NewSpace(3, 1, 4, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != rep.Schedules {
		t.Fatalf("%d violations over %d schedules", rep.ViolationCount, rep.Schedules)
	}
	if len(rep.Violations) != maxViolations {
		t.Fatalf("retained %d violations, want cap %d", len(rep.Violations), maxViolations)
	}
	vec, err := ParseVector(rep.Violations[0].Vector)
	if err != nil {
		t.Fatal(err)
	}
	if again := tg.Certify(vec); len(again.Violations) == 0 {
		t.Fatalf("replaying %s does not reproduce the violation", rep.Violations[0].Vector)
	}
}

// TestEnumerateRefusesHugeSpaces pins the two size guards. The walk limit
// applies to the walked count — canonical representatives for Symmetric
// targets — so a space whose raw count is far beyond MaxSchedules still
// certifies when its canonical count fits; the raw ceiling is a hard stop
// (counters would saturate) that only Force overrides.
func TestEnumerateRefusesHugeSpaces(t *testing.T) {
	tg, err := NewTarget("b", 64, 16, 15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Enumerate(NewSpace(16, 15, 40, 16), Options{}); err == nil {
		t.Fatal("astronomic space accepted")
	}

	// Symmetry makes a raw-intractable space tractable: t=20, f=3, depth 8,
	// prefix-0 has ~4.7M raw schedules (over the 1<<22 walk limit) but only
	// 969 canonical representatives.
	triv, err := NewTarget("trivial", 4, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	big := NewSpace(20, 3, 8, 0)
	if raw, canon := big.Count(), big.CanonicalCount(); raw <= 1<<22 || canon > 1<<22 {
		t.Fatalf("test space mis-sized: raw %d, canonical %d", raw, canon)
	}
	rep, err := triv.Enumerate(big, Options{})
	if err != nil {
		t.Fatalf("canonical-tractable space refused: %v", err)
	}
	if rep.Mode != "canonical" || rep.Schedules != big.Count() {
		t.Fatalf("mode %s, weighted %d of %d raw", rep.Mode, rep.Schedules, big.Count())
	}
	// The same space walked in full mode trips the walk limit.
	if _, err := triv.Enumerate(big, Options{Full: true}); err == nil {
		t.Fatal("raw walk over MaxSchedules accepted in full mode")
	}

	// The raw ceiling is a hard stop even when the canonical walk is tiny;
	// Force overrides it. Lower the ceiling rather than building a real
	// 2^40 space.
	old := rawCeiling
	rawCeiling = big.Count()
	defer func() { rawCeiling = old }()
	_, err = triv.Enumerate(big, Options{})
	if err == nil || !strings.Contains(err.Error(), "Force") {
		t.Fatalf("over-ceiling space accepted or error unhelpful: %v", err)
	}
	forced, err := triv.Enumerate(big, Options{Force: true})
	if err != nil {
		t.Fatalf("Force did not override the ceiling: %v", err)
	}
	if forced.Schedules != big.Count() {
		t.Fatalf("forced walk weighted %d of %d", forced.Schedules, big.Count())
	}
}

// TestSearchDeterministic pins search determinism across repeats and worker
// counts for a fixed seed.
func TestSearchDeterministic(t *testing.T) {
	tg, err := NewTarget("a", 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := SearchOptions{Seed: 7, Budget: 600, MaxPrefix: -1}
	first, err := tg.Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 3} {
		o := opt
		o.Jobs = jobs
		again, err := tg.Search(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("jobs=%d search differs:\n%+v\nvs\n%+v", jobs, first, again)
		}
	}
}

// TestSearchFindsExhaustiveWorst checks the searcher against ground truth:
// on an instance small enough to enumerate, hill-climbing from random
// samples reaches the true worst effort.
func TestSearchFindsExhaustiveWorst(t *testing.T) {
	tg, err := NewTarget("a", 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	depth, err := tg.DefaultDepth()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tg.Enumerate(NewSpace(3, 2, depth, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := tg.Search(SearchOptions{Seed: 7, Budget: 2000, MaxPrefix: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.Value != rep.WorstEffort.Value {
		t.Fatalf("search found %d (%s), exhaustive worst is %d (%s)",
			sr.Best.Value, sr.Best.Vector, rep.WorstEffort.Value, rep.WorstEffort.Vector)
	}
	if len(sr.Violations) != 0 {
		t.Fatalf("search violations: %v", sr.Violations)
	}
}

func TestNewTargetErrors(t *testing.T) {
	if _, err := NewTarget("nope", 8, 3, 1); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := NewTarget("a", 8, 3, 3); err == nil {
		t.Fatal("maxCrashes = t accepted")
	}
	if _, err := NewTarget("a", 8, 0, 0); err == nil {
		t.Fatal("t = 0 accepted")
	}
}

// TestTargetsCertifySmallSpaces sweeps every bounded protocol through a
// small exhaustive space: zero violations anywhere.
func TestTargetsCertifySmallSpaces(t *testing.T) {
	for _, proto := range []string{"a", "b", "c", "c-lowmsg", "d", "single-checkpoint", "naive"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			n, tt := 6, 3
			tg, err := NewTarget(proto, n, tt, 2)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tg.Enumerate(NewSpace(tt, 2, 5, 2), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationCount != 0 {
				t.Fatalf("violations: %v", rep.Violations)
			}
		})
	}
}
