package explore

import (
	"strings"
	"testing"

	"repro/internal/adversary"
)

// testSpaces are the grids the symmetry/pruning property tests cross with
// protocols: a crash-only space and a full-alphabet space, both small
// enough to enumerate directly.
func testSpaces(t, f int) map[string]Space {
	crashOnly := NewSpace(t, f, 4, 2)
	full := NewSpace(t, f, 3, 1)
	full.Omissions = true
	full.Rounds = []int64{1, 3}
	full.RestartDelays = []int64{2}
	full.SlowFactors = []int{2}
	full.Drops = []int{1, 2}
	return map[string]Space{"crash-only": crashOnly, "full-alphabet": full}
}

// TestCanonicalIndexingBijection pins the canonical unranking: every index
// decodes to a distinct non-decreasing digit sequence, the count formula
// matches the walk, and the orbit sizes sum back to the raw space — the
// identity Σ orbits = Σ_k C(t,k)·m^k that makes orbit weighting exact.
func TestCanonicalIndexingBijection(t *testing.T) {
	for name, sp := range testSpaces(4, 3) {
		t.Run(name, func(t *testing.T) {
			norm, err := sp.normalize()
			if err != nil {
				t.Fatal(err)
			}
			n := norm.canonCount()
			if n <= 0 || n >= norm.count() {
				t.Fatalf("canonical count %d vs raw %d", n, norm.count())
			}
			seen := make(map[string]bool, n)
			var orbitSum int64
			var digits []int
			for i := int64(0); i < n; i++ {
				digits = norm.canonDecode(i, digits)
				for j := 1; j < len(digits); j++ {
					if digits[j] < digits[j-1] {
						t.Fatalf("index %d decodes to non-canonical digits %v", i, digits)
					}
				}
				key := norm.canonVector(digits).String()
				if seen[key] {
					t.Fatalf("index %d re-decodes representative %q", i, key)
				}
				seen[key] = true
				orbitSum = satAdd(orbitSum, norm.orbitSize(digits))
			}
			if orbitSum != norm.count() {
				t.Fatalf("orbits sum to %d, raw space has %d", orbitSum, norm.count())
			}
		})
	}
}

// TestSymmetryWitness pins which protocols are exchangeable under PID
// renaming: the DHW protocols all have counterexample transpositions
// (process 0's special role, PID-ordered takeover and chunking), the
// anonymous trivial baseline has none — and the Symmetric declarations
// match exactly.
func TestSymmetryWitness(t *testing.T) {
	sp := NewSpace(3, 2, 4, 2)
	for _, proto := range []string{"a", "b", "c", "d", "naive", "trivial"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			tg, err := NewTarget(proto, 6, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			witness, err := tg.SymmetryWitness(sp, 4000)
			if err != nil {
				t.Fatal(err)
			}
			if tg.Symmetric && witness != "" {
				t.Fatalf("target declared Symmetric but has witness %s", witness)
			}
			if !tg.Symmetric && witness == "" {
				t.Fatalf("no symmetry counterexample found; is %s exchangeable after all?", proto)
			}
			if tg.Symmetric != (proto == "trivial") {
				t.Fatalf("Symmetric = %v for %s", tg.Symmetric, proto)
			}
		})
	}
}

// TestCanonicalMatchesFullOnSymmetricTarget is the symmetry-reduction
// soundness oracle: on the one Symmetric target, the canonical walk's
// orbit-weighted report must agree with the full walk on every aggregate,
// and its extreme witnesses must replay to the claimed values.
func TestCanonicalMatchesFullOnSymmetricTarget(t *testing.T) {
	grids := []struct{ n, tt, f int }{{4, 3, 2}, {2, 4, 3}, {5, 2, 1}}
	for _, g := range grids {
		for name, sp := range testSpaces(g.tt, g.f) {
			tg, err := NewTarget("trivial", g.n, g.tt, g.f)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := tg.Enumerate(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			full, err := tg.Enumerate(sp, Options{Full: true})
			if err != nil {
				t.Fatal(err)
			}
			label := func() string { return name + " " + canon.Mode + " vs " + full.Mode }
			if canon.Mode != "canonical" || full.Mode != "full" {
				t.Fatalf("%s: wrong modes", label())
			}
			if canon.Schedules != full.Schedules || canon.Collapsed != full.Collapsed {
				t.Fatalf("%s: schedules %d/%d collapsed %d/%d", label(),
					canon.Schedules, full.Schedules, canon.Collapsed, full.Collapsed)
			}
			if canon.ViolationCount != full.ViolationCount {
				t.Fatalf("%s: violations %d vs %d:\n%v\n%v", label(),
					canon.ViolationCount, full.ViolationCount, canon.Violations, full.Violations)
			}
			if len(canon.ByCrashes) != len(full.ByCrashes) {
				t.Fatalf("%s: ByCrashes %v vs %v", label(), canon.ByCrashes, full.ByCrashes)
			}
			for i := range canon.ByCrashes {
				if canon.ByCrashes[i] != full.ByCrashes[i] {
					t.Fatalf("%s: ByCrashes %v vs %v", label(), canon.ByCrashes, full.ByCrashes)
				}
			}
			if canon.Walked >= full.Walked {
				t.Fatalf("%s: canonical walked %d, full walked %d — no reduction", label(),
					canon.Walked, full.Walked)
			}
			// Extremes agree in value (the witness vectors may differ by a
			// PID renaming) and each canonical witness replays to its claim.
			for _, pair := range []struct {
				name string
				c, f Extreme
			}{
				{"work", canon.WorstWork, full.WorstWork},
				{"messages", canon.WorstMessages, full.WorstMessages},
				{"rounds", canon.WorstRounds, full.WorstRounds},
				{"effort", canon.WorstEffort, full.WorstEffort},
			} {
				if pair.c.Value != pair.f.Value {
					t.Fatalf("%s: worst %s %d (%s) vs %d (%s)", label(), pair.name,
						pair.c.Value, pair.c.Vector, pair.f.Value, pair.f.Vector)
				}
				if pair.c.Vector == "" {
					continue
				}
				vec, err := adversary.ParseVector(pair.c.Vector)
				if err != nil {
					t.Fatalf("%s: worst %s vector %q: %v", label(), pair.name, pair.c.Vector, err)
				}
				cert := tg.Certify(vec)
				var got int64
				switch pair.name {
				case "work":
					got = cert.Result.WorkTotal
				case "messages":
					got = cert.Result.Messages
				case "rounds":
					got = cert.Result.Rounds
				case "effort":
					got = cert.Result.Effort()
				}
				if got != pair.c.Value {
					t.Fatalf("%s: replaying worst-%s witness %s gives %d, claimed %d",
						label(), pair.name, pair.c.Vector, got, pair.c.Value)
				}
			}
		}
	}
}

// TestTrivialTargetCertifies pins the trivial baseline's exact bound: tn
// work under every schedule in a full-alphabet space, zero violations.
func TestTrivialTargetCertifies(t *testing.T) {
	tg, err := NewTarget("trivial", 5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tg.Symmetric {
		t.Fatal("trivial target not Symmetric")
	}
	if tg.Bounds.Work != 15 {
		t.Fatalf("trivial work bound = %d, want t*n = 15", tg.Bounds.Work)
	}
	sp := testSpaces(3, 2)["full-alphabet"]
	rep, err := tg.Enumerate(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.WorstWork.Value != 15 {
		t.Fatalf("worst work %d, want the exact bound 15", rep.WorstWork.Value)
	}
	if rep.Schedules != sp.Count() {
		t.Fatalf("weighted schedules %d, raw space %d", rep.Schedules, sp.Count())
	}
	if !strings.Contains(rep.Text(), "canonical") {
		t.Fatalf("report text does not mention the canonical mode:\n%s", rep.Text())
	}
}
