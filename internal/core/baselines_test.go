package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

func TestTrivialBaseline(t *testing.T) {
	n, tt := 16, 4
	res, err := RunProcs(n, tt, TrivialProcs(n), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTotal != int64(n*tt) {
		t.Fatalf("work = %d, want tn = %d", res.WorkTotal, n*tt)
	}
	if res.Messages != 0 {
		t.Fatalf("messages = %d, want 0", res.Messages)
	}
	// Units occupy rounds 0..n-1; the voluntary halt lands in round n.
	if res.Rounds != int64(n) {
		t.Fatalf("rounds = %d, want n", res.Rounds)
	}
}

func TestTrivialSurvivesAnyCrashPattern(t *testing.T) {
	n, tt := 16, 4
	res, err := RunProcs(n, tt, TrivialProcs(n), RunOptions{
		Adversary: adversary.NewRandom(0.1, tt-1, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCompletion(res); err != nil {
		t.Fatal(err)
	}
}

func TestSingleCheckpointBaseline(t *testing.T) {
	// §1: at most n + t - 1 work ever, but ~tn messages.
	n, tt := 32, 8
	procs, err := UniformCheckpointProcs(UniformConfig{N: n, T: tt, K: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range []sim.Adversary{
		nil,
		adversary.NewCascade(4, tt-1),
		adversary.NewRandom(0.02, tt-1, 5),
	} {
		res, err := RunProcs(n, tt, procs, RunOptions{Adversary: adv, MaxActive: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckCompletion(res); err != nil {
			t.Fatal(err)
		}
		if res.WorkTotal > int64(n+tt-1) {
			t.Fatalf("work = %d > n+t-1 = %d", res.WorkTotal, n+tt-1)
		}
	}
	// Failure-free message cost is n broadcasts to t-1 recipients.
	res, err := RunProcs(n, tt, procs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != int64(n*(tt-1)) {
		t.Fatalf("messages = %d, want n(t-1) = %d", res.Messages, n*(tt-1))
	}
}

func TestUniformCheckpointTradeoff(t *testing.T) {
	// §2's opening argument: under a full cascade, fewer checkpoints mean
	// more redone work, more checkpoints mean more messages.
	n, tt := 64, 16
	var prevWork, prevMsgs int64 = -1, -1
	for _, k := range []int{1, 4, 16, 64} {
		procs, err := UniformCheckpointProcs(UniformConfig{N: n, T: tt, K: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunProcs(n, tt, procs, RunOptions{
			Adversary: adversary.NewCascade(max(1, n/tt), tt-1),
			MaxActive: 1,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := CheckCompletion(res); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if prevWork >= 0 && res.WorkTotal > prevWork {
			t.Errorf("k=%d: work %d should not exceed coarser k's %d", k, res.WorkTotal, prevWork)
		}
		if prevMsgs >= 0 && res.Messages < prevMsgs {
			t.Errorf("k=%d: messages %d should not fall below coarser k's %d", k, res.Messages, prevMsgs)
		}
		prevWork, prevMsgs = res.WorkTotal, res.Messages
	}
}

func TestNaiveSpreadCompletes(t *testing.T) {
	n, tt := 16, 4
	procs, err := NaiveSpreadProcs(NaiveConfig{N: n, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		res, err := RunProcs(n, tt, procs, RunOptions{
			Adversary: adversary.NewRandom(0.03, tt-1, seed),
			MaxActive: 1,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckCompletion(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestNaiveCascadeQuadraticBlowup(t *testing.T) {
	// §3's worst case: effort grows ~t²/4 for the naive protocol. With
	// n = t-1 (the example's shape), the cascade forces each taker in
	// 1..t/2 to redo ~t/2 units.
	tt := 16
	n := tt - 1
	procs, err := NaiveSpreadProcs(NaiveConfig{N: n, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProcs(n, tt, procs, RunOptions{
		Adversary: NewNaiveCascadeAdversary(n, tt),
		MaxActive: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCompletion(res); err != nil {
		t.Fatal(err)
	}
	// Ω(t²/4) redone work.
	if res.WorkTotal < int64(n+tt*tt/8) {
		t.Fatalf("work = %d; expected quadratic blowup ≥ %d", res.WorkTotal, n+tt*tt/8)
	}
}

func TestUniformConfigValidation(t *testing.T) {
	if _, err := UniformCheckpointProcs(UniformConfig{N: 4, T: 0, K: 1}); err == nil {
		t.Fatal("want error for t=0")
	}
	if _, err := UniformCheckpointProcs(UniformConfig{N: 4, T: 2, K: 0}); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := NaiveSpreadProcs(NaiveConfig{N: 4, T: 0}); err == nil {
		t.Fatal("want error for t=0")
	}
}
