package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

func runB(t *testing.T, n, tt int, adv sim.Adversary) sim.Result {
	t.Helper()
	pr, err := ProtocolBProcs(ABConfig{N: n, T: tt})
	return runChecked(t, n, tt, pr, err, adv, 1)
}

func TestProtocolBFailureFree(t *testing.T) {
	res := runB(t, 64, 16, nil)
	if res.WorkTotal != 64 {
		t.Fatalf("failure-free work = %d, want 64", res.WorkTotal)
	}
	if res.Survivors != 16 {
		t.Fatalf("survivors = %d, want 16", res.Survivors)
	}
	if res.MessagesByKind["go-ahead"] != 0 {
		t.Fatalf("go-aheads sent in failure-free run: %d", res.MessagesByKind["go-ahead"])
	}
}

func TestProtocolBTheorem28Bounds(t *testing.T) {
	// Theorem 2.8: ≤ 3n work, ≤ 10t√t messages, all retired by O(n + t)
	// rounds (our time bound uses the model-adjusted constants: the chain
	// bound n + 3t of useful rounds plus TT(t-1, 0) useless rounds).
	cases := []struct{ n, t int }{
		{16, 4}, {64, 16}, {144, 9}, {256, 16}, {100, 25},
	}
	for _, c := range cases {
		advs := map[string]sim.Adversary{
			"none":    nil,
			"cascade": adversary.NewCascade(max(1, c.n/c.t), c.t-1),
			"random":  adversary.NewRandom(0.02, c.t-1, 11),
		}
		for name, adv := range advs {
			res := runB(t, c.n, c.t, adv)
			nPrime := max(c.n, c.t)
			if res.WorkTotal > int64(3*nPrime) {
				t.Errorf("n=%d t=%d %s: work %d > 3n'=%d", c.n, c.t, name, res.WorkTotal, 3*nPrime)
			}
			want := 10.0 * float64(c.t) * math.Sqrt(float64(c.t))
			if float64(res.Messages) > want {
				t.Errorf("n=%d t=%d %s: messages %d > 10t√t=%.0f", c.n, c.t, name, res.Messages, want)
			}
			tm := newABTimeouts(c.n, c.t)
			timeBound := int64(c.n) + 3*int64(c.t) + tm.tt(c.t-1, 0) + tm.activeLife()
			if res.Rounds > timeBound {
				t.Errorf("n=%d t=%d %s: rounds %d > bound %d", c.n, c.t, name, res.Rounds, timeBound)
			}
		}
	}
}

func TestProtocolBMuchFasterThanAUnderCascade(t *testing.T) {
	// The whole point of B: its running time is O(n + t) while A's is
	// O(nt + t²), because takeovers are triggered by polling rather than by
	// absolute deadlines.
	n, tt := 256, 16
	mk := func(procsOf func(ABConfig) (Procs, error)) int64 {
		pr, err := procsOf(ABConfig{N: n, T: tt})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunProcs(n, tt, pr, RunOptions{
			Adversary: adversary.NewCascade(n/tt, tt-1), MaxActive: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	roundsA := mk(ProtocolAProcs)
	roundsB := mk(ProtocolBProcs)
	if roundsB*4 > roundsA {
		t.Fatalf("B (%d rounds) not clearly faster than A (%d rounds) under cascade",
			roundsB, roundsA)
	}
}

func TestProtocolBGoAheadWakesLowestAliveProcess(t *testing.T) {
	// Kill process 0 after one subchunk (work kept, checkpoint suppressed).
	// Process 1 must be the one that takes over — woken by a go-ahead or by
	// its own PTO deadline — and no higher process should ever work.
	n, tt := 64, 16
	adv := adversary.NewCascade(n/tt, 1)
	res := runB(t, n, tt, adv)
	if res.PerProc[1].Work == 0 {
		t.Fatal("process 1 did not take over")
	}
	for pid := 2; pid < tt; pid++ {
		if res.PerProc[pid].Work != 0 {
			t.Fatalf("process %d worked; takeover order broken", pid)
		}
	}
}

func TestProtocolBCrossGroupTakeover(t *testing.T) {
	// Crash all of group 1 (processes 0..3) at round 0 except let process 0
	// do one subchunk first. A process of group 2 must take over after the
	// group timeout; the single-active invariant is checked throughout.
	n, tt := 64, 16
	crashes := []adversary.Crash{
		{PID: 1, Round: 0}, {PID: 2, Round: 0}, {PID: 3, Round: 0},
	}
	adv := adversary.NewChain(
		adversary.NewSchedule(crashes...),
		adversary.NewCascade(n/tt, 1),
	)
	res := runB(t, n, tt, adv)
	if res.PerProc[4].Work == 0 {
		t.Fatal("process 4 (first of group 2) did not take over")
	}
}

func TestProtocolBRandomCrashSweep(t *testing.T) {
	// Property-style sweep: many seeds, correctness + invariant always hold.
	for seed := int64(0); seed < 25; seed++ {
		runB(t, 48, 16, adversary.NewRandom(0.05, 15, seed))
	}
}

func TestProtocolBRaggedParameters(t *testing.T) {
	cases := []struct{ n, t int }{
		{10, 3}, {17, 5}, {33, 7}, {7, 7}, {5, 10}, {1, 2}, {12, 2},
	}
	for _, c := range cases {
		runB(t, c.n, c.t, nil)
		runB(t, c.n, c.t, adversary.NewRandom(0.08, c.t-1, 5))
	}
}

func TestProtocolBAllButOneCrash(t *testing.T) {
	n, tt := 32, 9
	var crashes []adversary.Crash
	for pid := 0; pid < tt-1; pid++ {
		crashes = append(crashes, adversary.Crash{PID: pid, Round: 0})
	}
	res := runB(t, n, tt, adversary.NewSchedule(crashes...))
	if res.PerProc[tt-1].Work != int64(n) {
		t.Fatalf("survivor work = %d, want %d", res.PerProc[tt-1].Work, n)
	}
	// B's survivor should take over in O(n + t) rounds, not O(nt).
	tm := newABTimeouts(n, tt)
	bound := tm.tt(tt-1, 0) + tm.activeLife()
	if res.Rounds > bound {
		t.Fatalf("rounds = %d > %d", res.Rounds, bound)
	}
}

func TestProtocolBGoAheadsOnlyUnderFailures(t *testing.T) {
	// go-aheads appear only when a preactive process probes; with a single
	// early crash of process 0, at most the probing of group 1 occurs.
	n, tt := 64, 16
	res := runB(t, n, tt, adversary.NewSchedule(adversary.Crash{PID: 0, Round: 0}))
	ga := res.MessagesByKind["go-ahead"]
	if ga == 0 {
		t.Skip("takeover happened via deadline without probing (valid)")
	}
	if ga > int64(tt) {
		t.Fatalf("go-aheads = %d, want ≤ t", ga)
	}
}
