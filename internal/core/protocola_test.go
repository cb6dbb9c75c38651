package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// runChecked runs a built (n, t) protocol under adv with per-kind message
// counts and verifies the completion guarantee plus, for maxActive 1, the
// single-active invariant.
func runChecked(t *testing.T, n, tt int, pr Procs, err error, adv sim.Adversary, maxActive int) sim.Result {
	t.Helper()
	if err != nil {
		t.Fatalf("procs: %v", err)
	}
	res, err := RunProcs(n, tt, pr, RunOptions{Adversary: adv, MaxActive: maxActive, DetailedMetrics: true})
	if err != nil {
		t.Fatalf("run n=%d t=%d: %v", n, tt, err)
	}
	if err := CheckCompletion(res); err != nil {
		t.Fatalf("n=%d t=%d: %v", n, tt, err)
	}
	return res
}

// runA runs Protocol A on an (n, t) instance with the given adversary.
func runA(t *testing.T, n, tt int, adv sim.Adversary) sim.Result {
	t.Helper()
	pr, err := ProtocolAProcs(ABConfig{N: n, T: tt})
	return runChecked(t, n, tt, pr, err, adv, 1)
}

func TestProtocolAFailureFree(t *testing.T) {
	res := runA(t, 64, 16, nil)
	if res.WorkTotal != 64 {
		t.Fatalf("failure-free work = %d, want exactly n=64", res.WorkTotal)
	}
	if res.Survivors != 16 {
		t.Fatalf("survivors = %d, want 16", res.Survivors)
	}
	// Only process 0 ever works.
	if res.PerProc[0].Work != 64 {
		t.Fatalf("proc 0 work = %d, want 64", res.PerProc[0].Work)
	}
	for pid := 1; pid < 16; pid++ {
		if res.PerProc[pid].Work != 0 {
			t.Fatalf("proc %d worked (%d) in failure-free run", pid, res.PerProc[pid].Work)
		}
	}
}

func TestProtocolATheorem23Bounds(t *testing.T) {
	// Theorem 2.3: ≤ 3n work, ≤ 9t√t messages, all retired by nt + 3t²
	// (bounds verified with model slack: time bound uses our activeLife).
	cases := []struct{ n, t int }{
		{16, 4}, {64, 16}, {144, 9}, {256, 16}, {100, 25},
	}
	for _, c := range cases {
		advs := map[string]sim.Adversary{
			"none":    nil,
			"cascade": adversary.NewCascade(max(1, c.n/c.t), c.t-1),
			"random":  adversary.NewRandom(0.02, c.t-1, 7),
		}
		for name, adv := range advs {
			res := runA(t, c.n, c.t, adv)
			nPrime := max(c.n, c.t)
			if res.WorkTotal > int64(3*nPrime) {
				t.Errorf("n=%d t=%d %s: work %d > 3n'=%d", c.n, c.t, name, res.WorkTotal, 3*nPrime)
			}
			want := 9.0 * float64(c.t) * math.Sqrt(float64(c.t))
			if float64(res.Messages) > want {
				t.Errorf("n=%d t=%d %s: messages %d > 9t√t=%.0f", c.n, c.t, name, res.Messages, want)
			}
			tm := newABTimeouts(c.n, c.t)
			timeBound := int64(c.t) * tm.activeLife()
			if res.Rounds > timeBound {
				t.Errorf("n=%d t=%d %s: rounds %d > %d", c.n, c.t, name, res.Rounds, timeBound)
			}
		}
	}
}

func TestProtocolAAllButOneCrashImmediately(t *testing.T) {
	// Processes 0..t-2 crash at round 0 (before acting); only t-1 survives
	// and must do all the work alone.
	n, tt := 32, 8
	var crashes []adversary.Crash
	for pid := 0; pid < tt-1; pid++ {
		crashes = append(crashes, adversary.Crash{PID: pid, Round: 0})
	}
	res := runA(t, n, tt, adversary.NewSchedule(crashes...))
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1", res.Survivors)
	}
	if res.PerProc[tt-1].Work != int64(n) {
		t.Fatalf("last process did %d units, want all %d", res.PerProc[tt-1].Work, n)
	}
}

func TestProtocolACrashMidPartialCheckpoint(t *testing.T) {
	// Process 0 crashes during its first partial checkpoint, delivering to
	// only one group member. The work must still complete, with at most one
	// subchunk redone by the taker.
	n, tt := 64, 16
	adv := &kindCount{PID: 0, Kind: "partial-cp", N: 1, Prefix: 1}
	res := runA(t, n, tt, adv)
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	w := subchunkWidth(n, tt)
	if res.WorkTotal > int64(n+w) {
		t.Fatalf("work = %d, want ≤ n + one subchunk = %d", res.WorkTotal, n+w)
	}
}

func TestProtocolACrashMidFullCheckpoint(t *testing.T) {
	// Crash during the first full-checkpoint broadcast: the taker must
	// complete the interrupted full checkpoint without redoing the chunk's
	// work more than the analysis allows.
	n, tt := 64, 16
	for nth := 1; nth <= 4; nth++ {
		adv := &kindCount{PID: 0, Kind: "full-cp", N: nth, Prefix: 2}
		res := runA(t, n, tt, adv)
		if res.WorkTotal > int64(n+n/4) {
			t.Fatalf("nth=%d: work = %d, want ≤ n + chunk = %d", nth, res.WorkTotal, n+n/4)
		}
	}
}

func TestProtocolACascadeOfTakeovers(t *testing.T) {
	// Every process crashes at its first checkpoint after one subchunk of
	// work; t-1 takeovers happen and the last process finishes.
	n, tt := 64, 16
	res := runA(t, n, tt, adversary.NewCascade(n/tt, tt-1))
	if res.Crashes != tt-1 {
		t.Fatalf("crashes = %d, want %d", res.Crashes, tt-1)
	}
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1", res.Survivors)
	}
}

func TestProtocolARaggedParameters(t *testing.T) {
	// Non-square t, n not divisible by t: correctness (not paper constants)
	// must hold.
	cases := []struct{ n, t int }{
		{10, 3}, {17, 5}, {33, 7}, {50, 12}, {7, 7}, {5, 10}, {1, 2},
	}
	for _, c := range cases {
		runA(t, c.n, c.t, nil)
		runA(t, c.n, c.t, adversary.NewRandom(0.05, c.t-1, 3))
	}
}

func TestProtocolASingleProcess(t *testing.T) {
	res := runA(t, 8, 1, nil)
	if res.WorkTotal != 8 || res.Messages != 0 {
		t.Fatalf("work=%d msgs=%d, want 8/0", res.WorkTotal, res.Messages)
	}
}

func TestProtocolAInvalidConfig(t *testing.T) {
	if _, err := ProtocolAProcs(ABConfig{N: 4, T: 0}); err == nil {
		t.Fatal("want error for t=0")
	}
	if _, err := ProtocolAProcs(ABConfig{N: -1, T: 2}); err == nil {
		t.Fatal("want error for n<0")
	}
	if _, err := ProtocolAProcs(ABConfig{N: 4, T: 2, Assign: Assignment{Workers: []int{0}}}); err == nil {
		t.Fatal("want error for worker/t mismatch")
	}
}

func TestProtocolASubsetAssignment(t *testing.T) {
	// Run A among pids {1,3,5} on units {2,4,6,8} of a 6-process engine;
	// other pids idle. Exercises the assignment machinery used by Protocol
	// D's revert.
	cfg := ABConfig{
		N: 4, T: 3,
		Assign: Assignment{Workers: []int{1, 3, 5}, Units: []int{2, 4, 6, 8}},
	}
	steppers, err := protocolASteppers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSteppers(8, 6, func(id int) sim.Stepper {
		switch id {
		case 1, 3, 5:
			return steppers(map[int]int{1: 0, 3: 1, 5: 2}[id])
		default:
			// Non-participants halt at once.
			return stepFunc(func(*sim.Proc) sim.Yield { return haltYield() })
		}
	}, RunOptions{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkDistinct != 4 {
		t.Fatalf("distinct units = %d, want the 4 assigned", res.WorkDistinct)
	}
	for _, pid := range []int{0, 2, 4} {
		if res.PerProc[pid].Work != 0 {
			t.Fatalf("non-participant %d worked", pid)
		}
	}
}

func TestSubchunkRange(t *testing.T) {
	// n=10, P=4 → w=3: 1-3, 4-6, 7-9, 10-10.
	cases := []struct{ c, lo, hi int }{{1, 1, 3}, {2, 4, 6}, {3, 7, 9}, {4, 10, 10}}
	for _, c := range cases {
		lo, hi := subchunkRange(10, 4, c.c)
		if lo != c.lo || hi != c.hi {
			t.Errorf("subchunkRange(10,4,%d) = [%d,%d], want [%d,%d]", c.c, lo, hi, c.lo, c.hi)
		}
	}
	// Empty trailing subchunk: n=4, P=4, w=1 has none; n=3, P=4 has one.
	lo, hi := subchunkRange(3, 4, 4)
	if lo <= hi {
		t.Errorf("subchunkRange(3,4,4) = [%d,%d], want empty", lo, hi)
	}
}

// stepFunc is a sim.Stepper whose every step calls the function.
type stepFunc func(*sim.Proc) sim.Yield

func (f stepFunc) Step(p *sim.Proc) sim.Yield { return f(p) }
