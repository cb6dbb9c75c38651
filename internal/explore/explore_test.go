package explore

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
)

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
	worst, err := adversary.ParseVector(rep.WorstEffort.Vector)
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
	vec, err := adversary.ParseVector(rep.Violations[0].Vector)
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
