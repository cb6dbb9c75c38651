package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/group"
	"repro/internal/sim"
)

func runC(t *testing.T, n, tt, reportEvery int, adv sim.Adversary) sim.Result {
	t.Helper()
	pr, err := ProtocolCProcs(CConfig{N: n, T: tt, ReportEvery: reportEvery})
	return runChecked(t, n, tt, pr, err, adv, 1)
}

func TestProtocolCFailureFree(t *testing.T) {
	n, tt := 24, 8
	res := runC(t, n, tt, 1, nil)
	// Process 0 does all n units; later activations may redo a few trailing
	// units whose reports they never saw (a terminated process looks
	// exactly like a crashed one to a poller) — this is the +2t of
	// Theorem 3.8(a) and is intrinsic to the protocol, even failure-free.
	if res.WorkTotal < int64(n) || res.WorkTotal > int64(n+2*tt) {
		t.Fatalf("work = %d, want within [n, n+2t] = [%d, %d]", res.WorkTotal, n, n+2*tt)
	}
	if res.PerProc[0].Work != int64(n) {
		t.Fatalf("proc 0 work = %d, want all %d", res.PerProc[0].Work, n)
	}
	if res.Survivors != tt {
		t.Fatalf("survivors = %d, want %d", res.Survivors, tt)
	}
}

func TestProtocolCTheorem38Bounds(t *testing.T) {
	// Theorem 3.8: ≤ n + 2t real work, ≤ n + 8t·log t messages.
	cases := []struct{ n, t int }{
		{16, 4}, {24, 8}, {32, 8}, {16, 16}, {20, 5},
	}
	for _, c := range cases {
		logT := group.CeilLog2(c.t)
		advs := map[string]sim.Adversary{
			"none":    nil,
			"cascade": adversary.NewCascade(max(1, c.n/c.t), c.t-1),
			"random":  adversary.NewRandom(0.01, c.t-1, 13),
		}
		for name, adv := range advs {
			res := runC(t, c.n, c.t, 1, adv)
			if res.WorkTotal > int64(c.n+2*c.t) {
				t.Errorf("n=%d t=%d %s: work %d > n+2t=%d",
					c.n, c.t, name, res.WorkTotal, c.n+2*c.t)
			}
			msgBound := int64(c.n + 8*c.t*max(logT, 1))
			if res.Messages > msgBound {
				t.Errorf("n=%d t=%d %s: messages %d > n+8t·logt=%d",
					c.n, c.t, name, res.Messages, msgBound)
			}
		}
	}
}

func TestProtocolCLowMessageVariant(t *testing.T) {
	// Corollary 3.9: reporting every ⌈n/t⌉ units cuts messages to O(t log t)
	// while work stays O(n + t). (n + t must stay modest: the deadlines are
	// exponential in n + t and saturate the int64 round space beyond ~60.)
	n, tt := 32, 8
	logT := group.CeilLog2(tt)
	res := runC(t, n, tt, subchunkWidth(n, tt), adversary.NewCascade(n/tt, tt-1))
	if res.WorkTotal > int64(2*(n+2*tt)) {
		t.Fatalf("work = %d, want O(n+t)", res.WorkTotal)
	}
	msgBound := int64(10 * tt * logT)
	if res.Messages > msgBound {
		t.Fatalf("messages = %d > %d (O(t log t))", res.Messages, msgBound)
	}
	// The variant must beat per-unit reporting on messages.
	perUnit := runC(t, n, tt, 1, adversary.NewCascade(n/tt, tt-1))
	if res.Messages >= perUnit.Messages {
		t.Fatalf("low-msg variant (%d msgs) not below per-unit (%d msgs)",
			res.Messages, perUnit.Messages)
	}
}

func TestProtocolCMostKnowledgeableTakesOver(t *testing.T) {
	// Process 0 performs three units, reporting units 1,2,3 to processes
	// 1,2,3 respectively (cyclic order in G1), then crashes while sending
	// its 4th report into the void. The most knowledgeable survivor is the
	// recipient of the unit-3 report; it must take over, and total work must
	// stay near n.
	n, tt := 12, 4
	adv := &adversary.KindCount{PID: 0, Kind: "ordinary", N: 4, Prefix: 0}
	res := runC(t, n, tt, 1, adv)
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	// Process 3 (recipient of the unit-3 report, the most knowledgeable
	// survivor) must take over and perform exactly units 4..12; unit 4 is
	// redone because its report was suppressed.
	if res.PerProc[3].Work != int64(n-3) {
		t.Fatalf("proc 3 work = %d, want %d (units 4..%d)", res.PerProc[3].Work, n-3, n)
	}
	if res.WorkTotal < int64(n+1) || res.WorkTotal > int64(n+2*tt) {
		t.Fatalf("work = %d, want within [n+1, n+2t]", res.WorkTotal)
	}
}

func TestProtocolCCascade(t *testing.T) {
	// Every active process crashes after performing ⌈n/t⌉ units at its next
	// report; despite t-1 failures, completion holds, work is bounded, and
	// at most one process is ever active.
	n, tt := 16, 8
	res := runC(t, n, tt, 1, adversary.NewCascade(n/tt, tt-1))
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1", res.Survivors)
	}
	if res.WorkTotal > int64(n+2*tt) {
		t.Fatalf("work = %d > n+2t", res.WorkTotal)
	}
}

func TestProtocolCAllButOneCrashImmediately(t *testing.T) {
	// Only the last process survives: it must eventually become active (its
	// D(i,0) deadline is the smallest) and do everything.
	n, tt := 8, 4
	var crashes []adversary.Crash
	for pid := 0; pid < tt-1; pid++ {
		crashes = append(crashes, adversary.Crash{PID: pid, Round: 0})
	}
	res := runC(t, n, tt, 1, adversary.NewSchedule(crashes...))
	if res.PerProc[tt-1].Work != int64(n) {
		t.Fatalf("survivor work = %d, want %d", res.PerProc[tt-1].Work, n)
	}
}

func TestProtocolCRandomSweep(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		runC(t, 16, 8, 1, adversary.NewRandom(0.02, 7, seed))
	}
}

func TestProtocolCNonPowerOfTwo(t *testing.T) {
	// The generalised level tree handles any t.
	cases := []struct{ n, t int }{{10, 3}, {12, 5}, {14, 7}, {9, 6}}
	for _, c := range cases {
		runC(t, c.n, c.t, 1, nil)
		runC(t, c.n, c.t, 1, adversary.NewRandom(0.03, c.t-1, 9))
	}
}

func TestProtocolCSingleProcess(t *testing.T) {
	res := runC(t, 5, 1, 1, nil)
	if res.WorkTotal != 5 || res.Messages != 0 {
		t.Fatalf("work=%d msgs=%d, want 5/0", res.WorkTotal, res.Messages)
	}
}

func TestProtocolCExponentialTimeIsReal(t *testing.T) {
	// The paper's deadlines are exponential even in failure-free runs
	// (inactive processes must wait out D(i, m) before retiring through
	// their own activation). The simulator's fast-forward handles it: the
	// round count is astronomical, the event count tiny.
	res := runC(t, 8, 4, 1, nil)
	if res.Rounds < int64(1)<<10 {
		t.Fatalf("rounds = %d; expected exponential deadlines to dominate", res.Rounds)
	}
	if res.Events > 10_000 {
		t.Fatalf("events = %d; fast-forward failed", res.Events)
	}
	// Theorem 3.8(c): all retired by t·K·(n+t)·2^(n+t).
	ct := newCTimeouts(8, 4, 1)
	bound := satMul(int64(4), satMul(ct.k, satMul(int64(12), pow2(12))))
	if res.Rounds > bound {
		t.Fatalf("rounds = %d > theorem bound %d", res.Rounds, bound)
	}
}

// TestProtocolCHorizonError: C completes at 160×40, but at 192×48 its
// deadlines saturate at sim.Forever, and the run fails with the horizon
// error: ErrDeadlock naming a saturated process and its deadline.
func TestProtocolCHorizonError(t *testing.T) {
	pr, err := ProtocolCProcs(CConfig{N: 192, T: 48})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSteppers(192, 48, pr.Steppers, RunOptions{})
	want := "proc 1's deadline saturated at round 2305843009213693952 (sim.Forever)"
	if !errors.Is(err, sim.ErrDeadlock) || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want ErrDeadlock naming %q", err, want)
	}
}

func TestProtocolCDeadlineMonotonicity(t *testing.T) {
	// D(i, m) strictly decreases in m (more knowledge = earlier takeover),
	// and D(i, 0) decreases in i (higher id = earlier takeover when nothing
	// is known).
	ct := newCTimeouts(16, 8, 1)
	for m := 1; m < 23; m++ {
		if ct.deadline(3, m) <= ct.deadline(3, m+1) {
			t.Fatalf("D(3,%d)=%d not > D(3,%d)=%d",
				m, ct.deadline(3, m), m+1, ct.deadline(3, m+1))
		}
	}
	for i := 0; i < 7; i++ {
		if ct.deadline(i, 0) <= ct.deadline(i+1, 0) {
			t.Fatalf("D(%d,0) not > D(%d,0)", i, i+1)
		}
	}
	// The paper's separation property used by Lemma 3.4:
	// D(i,m) > (n+t-m)K + D(i,m+1) + ... + D(i,n+t-1).
	n, tt := 16, 8
	for m := 1; m < n+tt-1; m++ {
		sum := satMul(int64(n+tt-m), ct.k)
		for k := m + 1; k <= n+tt-1; k++ {
			sum = satAdd(sum, ct.deadline(0, k))
		}
		if ct.deadline(0, m) <= sum {
			t.Fatalf("separation fails at m=%d: D=%d, sum=%d", m, ct.deadline(0, m), sum)
		}
	}
}

func TestProtocolCPiggyback(t *testing.T) {
	// Values attached to ordinary messages propagate (used by §5, which
	// reads them through its tap): each sender attaches its own PID.
	n, tt := 8, 4
	steppers, err := protocolCSteppers(CConfig{N: n, T: tt, PiggybackSend: func(pid int) any { return pid }})
	if err != nil {
		t.Fatal(err)
	}
	got, wrong := 0, 0
	tap := func(m sim.Message) {
		if o, ok := m.Payload.(COrdinary); ok && o.Value == m.From {
			got++
		} else if ok {
			wrong++
		}
	}
	_, err = RunSteppers(n, tt, func(id int) sim.Stepper {
		st := steppers(id)
		return stepFunc(func(p *sim.Proc) sim.Yield { p.SetTap(tap); return st.Step(p) })
	}, RunOptions{MaxActive: 1})
	if err != nil || got == 0 || wrong != 0 {
		t.Fatalf("%d ordinary messages carried their sender's value, %d another (err %v)", got, wrong, err)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if satMul(1<<40, 1<<40) != sim.Forever {
		t.Fatal("satMul did not saturate")
	}
	if satAdd(sim.Forever, sim.Forever) != sim.Forever {
		t.Fatal("satAdd did not saturate")
	}
	if pow2(100) != sim.Forever {
		t.Fatal("pow2 did not saturate")
	}
	if pow2(3) != 8 || pow2(0) != 1 || pow2(-1) != 1 {
		t.Fatal("pow2 small values wrong")
	}
	if satMul(3, 4) != 12 || satAdd(3, 4) != 7 {
		t.Fatal("sat small values wrong")
	}
}
