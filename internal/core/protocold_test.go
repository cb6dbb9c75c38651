package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

func runD(t *testing.T, n, tt int, adv sim.Adversary) sim.Result {
	t.Helper()
	pr, err := ProtocolDProcs(DConfig{N: n, T: tt})
	return runChecked(t, n, tt, pr, err, adv, 0)
}

func runDRaw(n, tt int, cfg DConfig, adv sim.Adversary) (sim.Result, error) {
	pr, err := ProtocolDProcs(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return RunProcs(n, tt, pr, RunOptions{Adversary: adv, DetailedMetrics: true})
}

func TestProtocolDFailureFree(t *testing.T) {
	// §4: with no failures, n units of work, n/t + 2 rounds, ≤ 2t² messages.
	n, tt := 64, 8
	res := runD(t, n, tt, nil)
	if res.WorkTotal != int64(n) {
		t.Fatalf("work = %d, want exactly n = %d", res.WorkTotal, n)
	}
	wantRounds := int64(n/tt + 2)
	if res.Rounds != wantRounds {
		t.Fatalf("rounds = %d, want n/t + 2 = %d", res.Rounds, wantRounds)
	}
	if res.Messages > int64(2*tt*tt) {
		t.Fatalf("messages = %d, want ≤ 2t² = %d", res.Messages, 2*tt*tt)
	}
	if res.Survivors != tt {
		t.Fatalf("survivors = %d", res.Survivors)
	}
	// Work is perfectly balanced.
	for pid := 0; pid < tt; pid++ {
		if res.PerProc[pid].Work != int64(n/tt) {
			t.Fatalf("proc %d work = %d, want %d", pid, res.PerProc[pid].Work, n/tt)
		}
	}
}

func TestProtocolDOneFailure(t *testing.T) {
	// §4: with one failure, ≤ n + n/t work, ≤ n/t + ⌈n/(t(t-1))⌉ + 6 rounds,
	// ≤ 5t² messages.
	n, tt := 64, 8
	res := runD(t, n, tt, adversary.NewSchedule(adversary.Crash{PID: 3, Round: 0}))
	if res.WorkTotal > int64(n+n/tt) {
		t.Fatalf("work = %d, want ≤ n + n/t = %d", res.WorkTotal, n+n/tt)
	}
	bound := int64(n/tt + (n+tt*(tt-1)-1)/(tt*(tt-1)) + 6)
	if res.Rounds > bound {
		t.Fatalf("rounds = %d, want ≤ %d", res.Rounds, bound)
	}
	if res.Messages > int64(5*tt*tt) {
		t.Fatalf("messages = %d, want ≤ 5t² = %d", res.Messages, 5*tt*tt)
	}
}

func TestProtocolDTheorem41Part1(t *testing.T) {
	// Theorem 4.1(1): with at most half the live processes failing per
	// phase, ≤ 2n work, ≤ (4f+2)t² messages, retired by (f+1)n/t + 4f + 2.
	n, tt := 64, 8
	for f := 0; f <= 3; f++ {
		var crashes []adversary.Crash
		for k := 0; k < f; k++ {
			// One crash per phase, spread out (phase length ≥ n/t).
			crashes = append(crashes, adversary.Crash{
				PID: k + 1, Round: int64(k * (n/tt + 8)),
			})
		}
		res := runD(t, n, tt, adversary.NewSchedule(crashes...))
		if res.WorkTotal > int64(2*n) {
			t.Errorf("f=%d: work = %d > 2n", f, res.WorkTotal)
		}
		if res.Messages > int64((4*f+2)*tt*tt) {
			t.Errorf("f=%d: messages = %d > (4f+2)t² = %d",
				f, res.Messages, (4*f+2)*tt*tt)
		}
		bound := int64((f+1)*n/tt + 4*f + 2)
		if res.Rounds > bound {
			t.Errorf("f=%d: rounds = %d > %d", f, res.Rounds, bound)
		}
	}
}

func TestProtocolDRevertsToProtocolA(t *testing.T) {
	// Crash more than half the processes during the first work phase: the
	// survivors must detect it and finish under Protocol A (Theorem 4.1(2)).
	n, tt := 64, 8
	var crashes []adversary.Crash
	for pid := 0; pid < tt/2+1; pid++ {
		crashes = append(crashes, adversary.Crash{PID: pid, Round: 1})
	}
	res := runD(t, n, tt, adversary.NewSchedule(crashes...))
	if res.Survivors != tt/2-1 {
		t.Fatalf("survivors = %d, want %d", res.Survivors, tt/2-1)
	}
	if res.WorkTotal > int64(4*n) {
		t.Fatalf("work = %d > 4n", res.WorkTotal)
	}
	// The revert shows up as checkpoint traffic (Protocol A messages).
	if res.MessagesByKind["partial-cp"] == 0 {
		t.Fatal("no Protocol A checkpoints seen; revert did not happen")
	}
}

func TestProtocolDRevertDisabledStillCompletes(t *testing.T) {
	n, tt := 64, 8
	var crashes []adversary.Crash
	for pid := 0; pid < tt/2+1; pid++ {
		crashes = append(crashes, adversary.Crash{PID: pid, Round: 1})
	}
	cfg := DConfig{N: n, T: tt, DisableRevert: true}
	res, err := runDRaw(n, tt, cfg, adversary.NewSchedule(crashes...))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCompletion(res); err != nil {
		t.Fatal(err)
	}
	if res.MessagesByKind["partial-cp"] != 0 {
		t.Fatal("revert happened despite DisableRevert")
	}
}

func TestProtocolDAgreementProperty(t *testing.T) {
	// All correct processes must finish with all work done, across many
	// adversarial schedules including crashes mid-broadcast during
	// agreement phases.
	n, tt := 32, 8
	for seed := int64(0); seed < 30; seed++ {
		res := runD(t, n, tt, adversary.NewRandom(0.03, tt-1, seed))
		if res.Survivors == 0 {
			continue
		}
		if !res.Complete() {
			t.Fatalf("seed %d: survivors finished without completing", seed)
		}
	}
}

func TestProtocolDCrashMidAgreementBroadcast(t *testing.T) {
	// A process crashes midway through an agreement broadcast, delivering
	// its view to a strict subset: the classic EBA hazard. Correctness must
	// hold for every crash position.
	// A single-phase run has exactly two d-view broadcasts per process (the
	// first view and the done view), so nth ranges over both.
	n, tt := 16, 4
	for nth := 1; nth <= 2; nth++ {
		for prefix := 0; prefix <= 2; prefix++ {
			adv := &kindCount{PID: 1, Kind: "d-view", N: nth, Prefix: prefix}
			res := runD(t, n, tt, adv)
			if res.Crashes != 1 {
				t.Fatalf("nth=%d prefix=%d: crashes = %d", nth, prefix, res.Crashes)
			}
		}
	}
}

func TestProtocolDHalfFailuresPerPhaseSequence(t *testing.T) {
	// Exactly half fail in phase one (no revert at factor 2 requires
	// |T'| > 2|T|, and 8 > 2·4 is false), then half of the rest, etc.
	n, tt := 64, 8
	crashes := []adversary.Crash{
		{PID: 0, Round: 1}, {PID: 1, Round: 1}, {PID: 2, Round: 2}, {PID: 3, Round: 2},
	}
	res := runD(t, n, tt, adversary.NewSchedule(crashes...))
	if res.MessagesByKind["partial-cp"] != 0 {
		t.Fatal("revert happened at exactly-half failures; threshold is 'more than half'")
	}
	if res.WorkTotal > int64(2*n) {
		t.Fatalf("work = %d > 2n", res.WorkTotal)
	}
}

func TestProtocolDSingleProcess(t *testing.T) {
	res := runD(t, 8, 1, nil)
	if res.WorkTotal != 8 {
		t.Fatalf("work = %d", res.WorkTotal)
	}
	if res.Messages != 0 {
		t.Fatalf("messages = %d, want 0", res.Messages)
	}
}

func TestProtocolDZeroWork(t *testing.T) {
	res := runD(t, 0, 4, nil)
	if res.WorkTotal != 0 || res.Rounds != 0 {
		t.Fatalf("work=%d rounds=%d, want zeros", res.WorkTotal, res.Rounds)
	}
}

func TestProtocolDUnevenDivision(t *testing.T) {
	// n not divisible by t: ceiling chunks with idle padding.
	cases := []struct{ n, t int }{{10, 3}, {17, 5}, {7, 8}, {1, 4}, {65, 8}}
	for _, c := range cases {
		runD(t, c.n, c.t, nil)
		runD(t, c.n, c.t, adversary.NewRandom(0.05, c.t-1, 21))
	}
}

func TestProtocolDRevertFactorValidation(t *testing.T) {
	if _, err := ProtocolDProcs(DConfig{N: 4, T: 2, RevertFactor: 0.3}); err == nil {
		t.Fatal("want error for factor < 1")
	}
}
