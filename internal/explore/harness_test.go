package explore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// recoverableTargets are the certification targets whose process bodies
// are sim.Recoverable, so a walker rewinds them instead of rebuilding.
var recoverableTargets = []struct {
	proto   string
	n, t, f int
}{
	{"a", 8, 3, 2},
	{"b", 8, 3, 2},
	{"c", 6, 3, 2},
	{"c-lowmsg", 6, 3, 2},
	{"d", 6, 3, 2},
	{"gossip", 6, 3, 2},
	{"gossip-cap", 6, 3, 2},
	{"trivial", 4, 3, 2},
}

// freshReport folds one Target.Certify per walk index — a throwaway harness
// each, so fresh bodies and a fresh adversary every time — into a report
// shaped like Enumerate's.
func freshReport(t *testing.T, tg Target, sp Space, canonical bool) *Report {
	t.Helper()
	norm, err := sp.normalize()
	if err != nil {
		t.Fatal(err)
	}
	mode, raw, total := "full", norm.count(), norm.count()
	if canonical {
		mode, total = "canonical", norm.canonCount()
	}
	rep := tg.newReport(mode, raw)
	var worst worstVectors
	for i := range total {
		vec, orbit := norm.vectorAt(i), int64(1)
		if canonical {
			digits := norm.canonDecode(i, nil)
			vec, orbit = norm.canonVector(digits), norm.orbitSize(digits)
		}
		rep.observe(tg.Certify(vec), orbit, &worst)
	}
	worst.format(rep)
	rep.WalkTotal = total
	return rep
}

// TestHarnessReuseMatchesFresh pins that the walkers' reuse is invisible:
// enumerating with one harness per walker — reset adversary, bodies rewound
// to their pristine snapshots — reports exactly what a fresh replay of
// every index does, over the full fault alphabet (restarts included), for
// every Recoverable target and worker count.
func TestHarnessReuseMatchesFresh(t *testing.T) {
	for _, tc := range recoverableTargets {
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			tg, err := NewTarget(tc.proto, tc.n, tc.t, tc.f)
			if err != nil {
				t.Fatal(err)
			}
			sp := testSpaces(tc.t, tc.f)["full-alphabet"]
			modes := []bool{false}
			if tg.Symmetric {
				modes = append(modes, true)
			}
			for _, full := range modes {
				want := freshReport(t, tg, sp, tg.Symmetric && !full)
				for _, jobs := range []int{1, 0} {
					got, err := tg.Enumerate(sp, Options{Jobs: jobs, Full: full})
					if err != nil {
						t.Fatal(err)
					}
					g := *got
					g.EngineRuns = 0
					if !reflect.DeepEqual(&g, want) {
						t.Fatalf("full=%v jobs=%d: reused walk differs from fresh replays:\n%+v\nvs\n%+v",
							full, jobs, g, *want)
					}
				}
			}
		})
	}
}

// TestHarnessRewindsOnlyRecoverableBodies pins the one switch the harness
// has: Recoverable targets are built once and rewound, non-Recoverable
// targets build fresh bodies every run.
func TestHarnessRewindsOnlyRecoverableBodies(t *testing.T) {
	for _, tc := range []struct {
		proto  string
		rewind bool
	}{{"d", true}, {"trivial", true}, {"single-checkpoint", false}, {"naive", false}} {
		tg, err := NewTarget(tc.proto, 6, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		builds := 0
		inner := tg.NewProcs
		tg.NewProcs = func() (core.Procs, error) { builds++; return inner() }
		h := newHarness(tg)
		vec := Vector{{Victim: 1, AtAction: 1}}
		first := h.certify(vec)
		for range 3 {
			if again := h.certify(vec); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: replay on a reused harness differs:\n%+v\nvs\n%+v", tc.proto, again, first)
			}
		}
		if want := map[bool]int{true: 1, false: 4}[tc.rewind]; builds != want {
			t.Fatalf("%s: %d builds for 4 runs, want %d", tc.proto, builds, want)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestEnumerateAllocs is the allocation budget of a certified schedule: a
// walked index pays for what its run keeps — message payloads, crash
// checkpoints — not for adversary maps, process construction or per-run
// bookkeeping. The spaces are the benchmark's: depth-6 A and C, gossip-cap
// over the full fault alphabet (omissions, restarts, slowdowns and drops
// under the bandwidth cap), and the raw trivial walk, one engine run per
// index. Measured per walked schedule: 0.40 (A), 0.86 (C), 0.73
// (gossip-cap) and 0.13 (trivial-full). Each budget sits a little above
// its measurement, so reintroducing a per-run allocation — a PerProc make
// in Finish, a send slice per C poll, a vector string per improved
// extreme — fails here.
func TestEnumerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled engines at random")
	}
	fullAlphabet := NewSpace(3, 2, 4, 2)
	fullAlphabet.Omissions = true
	fullAlphabet.Rounds = []int64{0, 1, 2}
	fullAlphabet.RestartDelays = []int64{2}
	fullAlphabet.SlowFactors = []int{2}
	fullAlphabet.Drops = []int{1}
	for _, c := range []struct {
		name      string
		proto     string
		n, t, f   int
		space     Space
		full      bool
		perWalked float64
	}{
		{"a-depth6", "a", 8, 3, 2, NewSpace(3, 2, 6, 2), false, 0.45},
		{"c-depth6", "c", 6, 3, 2, NewSpace(3, 2, 6, 2), false, 0.95},
		{"gossip-cap", "gossip-cap", 6, 3, 2, fullAlphabet, false, 0.80},
		{"trivial-full", "trivial", 4, 6, 3, NewSpace(6, 3, 4, 0), true, 0.16},
	} {
		tg, err := NewTarget(c.proto, c.n, c.t, c.f)
		if err != nil {
			t.Fatal(err)
		}
		var walked int64
		allocs := testing.AllocsPerRun(3, func() {
			rep, err := tg.Enumerate(c.space, Options{Jobs: 1, Full: c.full})
			if err != nil {
				t.Fatal(err)
			}
			walked = rep.Walked
		})
		if got := allocs / float64(walked); got > c.perWalked {
			t.Errorf("%s: %.3f allocations per walked schedule (%.0f for %d), budget %.2f",
				c.name, got, allocs, walked, c.perWalked)
		}
	}
}

// freshRun replays vec the way a caller outside the package would: fresh
// bodies and a fresh Vector.Adversary.
func freshRun(tg Target, vec Vector) (sim.Result, error) {
	procs, err := tg.NewProcs()
	if err != nil {
		return sim.Result{}, err
	}
	opt := core.RunOptions{Adversary: vec.Adversary(), MaxRound: tg.MaxRound, Bandwidth: tg.Bandwidth}
	if tg.SingleActive {
		opt.MaxActive = 1
	}
	return core.RunProcs(tg.N, tg.T, procs, opt)
}

// checkReusedReplay replays vec on a harness that last replayed other and
// requires the fresh run's exact Result and error.
func checkReusedReplay(t *testing.T, tg Target, other, vec Vector) {
	t.Helper()
	h := newHarness(tg)
	h.certify(other)
	got, gotErr := h.run(vec, -1)
	want, wantErr := freshRun(tg, vec)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s schedule %s after %s: reused replay diverged from a fresh one:\n%+v (%v)\nvs\n%+v (%v)",
			tg.Protocol, vec, other, got, gotErr, want, wantErr)
	}
}
