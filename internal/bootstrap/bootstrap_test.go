package bootstrap

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
)

func pool(n int) []int {
	units := make([]int, n)
	for i := range units {
		units[i] = i + 1
	}
	return units
}

func TestBootstrapFailureFree(t *testing.T) {
	for _, proto := range []agreement.WorkProtocol{agreement.UseA, agreement.UseB} {
		res, err := Run(Config{Pool: pool(32), T: 8, F: 3, Protocol: proto},
			core.RunOptions{MaxActive: 1})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !res.PoolAgreed || !res.Sim.Complete() {
			t.Fatalf("%v: agreed=%v complete=%v", proto, res.PoolAgreed, res.Sim.Complete())
		}
	}
}

func TestBootstrapCostAtMostDoubles(t *testing.T) {
	// §1: when n = Ω(t), the two-stage run costs at most about twice the
	// direct run (we allow 2.5× for the stage boundary slack).
	n, tt, f := 64, 8, 7
	boot, err := Run(Config{Pool: pool(n), T: tt, F: f, Protocol: agreement.UseB},
		core.RunOptions{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.ProtocolBProcs(core.ABConfig{N: n, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.RunProcs(n, tt, pr, core.RunOptions{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	bootEffort := boot.Sim.WorkTotal + boot.Sim.Messages
	directEffort := direct.WorkTotal + direct.Messages
	if bootEffort > directEffort*5/2 {
		t.Fatalf("bootstrap effort %d > 2.5× direct %d", bootEffort, directEffort)
	}
}

func TestBootstrapGeneralCrashesImmediately(t *testing.T) {
	// The general dies before informing anyone: no survivor knows the pool,
	// so no work is owed (and none can happen).
	res, err := Run(Config{Pool: pool(16), T: 8, F: 3, Protocol: agreement.UseB},
		core.RunOptions{
			Adversary: adversary.NewSchedule(adversary.Crash{PID: 0, Round: 0}),
			MaxActive: 1,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolAgreed {
		t.Fatal("pool agreed despite silent general")
	}
	if res.Sim.WorkDistinct != 0 {
		t.Fatalf("work happened without the pool: %d", res.Sim.WorkDistinct)
	}
}

func TestBootstrapGeneralCrashesMidBroadcast(t *testing.T) {
	// The general reaches a subset of senders: the pool must still spread
	// and the work complete.
	for prefix := 1; prefix <= 3; prefix++ {
		res, err := Run(Config{Pool: pool(16), T: 8, F: 3, Protocol: agreement.UseB},
			core.RunOptions{
				Adversary: adversary.NewSchedule(adversary.Crash{
					PID: 0, AtAction: 1, Deliver: prefixMask(3, prefix),
				}),
				MaxActive: 1,
			})
		if err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
		if !res.PoolAgreed || !res.Sim.Complete() {
			t.Fatalf("prefix %d: agreed=%v complete=%v", prefix, res.PoolAgreed, res.Sim.Complete())
		}
	}
}

func prefixMask(n, k int) []bool {
	m := make([]bool, n)
	for i := 0; i < k && i < n; i++ {
		m[i] = true
	}
	return m
}

func TestBootstrapSenderCascade(t *testing.T) {
	// Senders crash throughout both stages (within the F bound).
	res, err := Run(Config{Pool: pool(32), T: 8, F: 3, Protocol: agreement.UseB},
		core.RunOptions{
			Adversary: adversary.NewCascade(2, 3),
			MaxActive: 1,
		})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sim.Complete() {
		t.Fatal("incomplete")
	}
}

func TestBootstrapRandomSweep(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(Config{Pool: pool(24), T: 6, F: 3, Protocol: agreement.UseB},
			core.RunOptions{
				Adversary: adversary.NewRandom(0.02, 3, seed),
				MaxActive: 1,
			})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.PoolAgreed && res.Sim.Survivors > 0 && !res.Sim.Complete() {
			t.Fatalf("seed %d: guarantee broken", seed)
		}
	}
}

func TestBootstrapValidation(t *testing.T) {
	if _, err := Run(Config{Pool: pool(4), T: 0, F: 0}, core.RunOptions{}); err == nil {
		t.Fatal("want error for t=0")
	}
	if _, err := Run(Config{Pool: pool(4), T: 4, F: 4}, core.RunOptions{}); err == nil {
		t.Fatal("want error for f>=t")
	}
	if _, err := Run(Config{Pool: pool(4), T: 4, F: 1, Protocol: agreement.UseC}, core.RunOptions{}); err == nil {
		t.Fatal("want error for protocol C")
	}
}
