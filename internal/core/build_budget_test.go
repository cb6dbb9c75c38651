package core

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// bytesPerBuild is the heap bytes one call of build allocates, averaged
// over runs calls after a warm-up call.
func bytesPerBuild(runs int, build func()) int64 {
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// TestBuildBudget is the allocation budget of whole builds, from the
// public constructors: heap objects and bytes for hosted steppers. Every
// builder carves its machines from per-builder slabs (slab.go), so a build
// of t machines allocates about log₂ t arrays per part kind, not a few
// objects per machine: d-4096x64 measures 46 objects (1 154 when each
// machine allocated its struct, arena, six sets and their words and its
// scratch), gossip-2048x64 37 (321), b-4096x256 29 (275) and a-4096x64 19
// (75). A D machine holds O(n/64 + t) words, so every D stepper at n=4096,
// t=64 measures 160 kB (228 kB with a received-views scratch per machine,
// before its agreement round folded each view as it is filed); a member
// list per process would add 2 MiB. A gossip machine keys its unit order
// instead of drawing it and keeps only its (t−1)-entry peer rotation, so
// every gossip stepper at n=2048, t=64 measures 62 kB, its done sets most
// of it (604 kB with an n-entry []int32 order row per machine, 1.11 MB with
// []int rows). Building one process of a large gossip plan (a join hosting
// one PID) measures 10 kB at n=65536, t=16: its done set's words (280 kB
// with its order row, 4.2 MB drawing every process's row).
func TestBuildBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, c := range []struct {
		name    string
		hosted  int     // steppers built, PIDs 0..hosted-1
		objects float64 // heap objects per build
		budget  int64   // bytes per build
		build   func() (func(int) sim.Stepper, error)
	}{
		{"d-4096x64", 64, 50, 165_000, func() (func(int) sim.Stepper, error) {
			return ProtocolDSteppers(DConfig{N: 4096, T: 64})
		}},
		{"gossip-2048x64", 64, 42, 80_000, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 2048, T: 64})
		}},
		{"b-4096x256", 256, 34, 110_000, func() (func(int) sim.Stepper, error) {
			return ProtocolBSteppers(ABConfig{N: 4096, T: 256})
		}},
		{"a-4096x64", 64, 24, 22_000, func() (func(int) sim.Stepper, error) {
			return protocolASteppers(ABConfig{N: 4096, T: 64})
		}},
		{"gossip-65536x16-one-process", 1, 10, 16_000, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 65536, T: 16})
		}},
	} {
		var err error
		build := func() {
			var steppers func(int) sim.Stepper
			if steppers, err = c.build(); err != nil {
				return
			}
			for id := 0; id < c.hosted; id++ {
				steppers(id)
			}
		}
		objects := testing.AllocsPerRun(50, build)
		got := bytesPerBuild(50, build)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f objects, %d bytes", c.name, objects, got)
		if objects > c.objects {
			t.Errorf("%s: building %d steppers allocates %.0f objects, budget %.0f", c.name, c.hosted, objects, c.objects)
		}
		if got > c.budget {
			t.Errorf("%s: building %d steppers allocates %d bytes, budget %d", c.name, c.hosted, got, c.budget)
		}
	}
}

// TestBroadcastAllocBudget is the allocation budget of a whole D and a
// whole gossip run — build, engine run and every broadcast — under the
// faults of the matching benchmark cases. Both protocols publish their
// views from the sender's append-only viewArena, so a broadcast costs no
// allocation of its own, and both carve their machines from per-builder
// slabs: a gossip-2048x64 run measures 404 allocations (943 with a few
// objects per machine, 4 936 with a copy-on-write Shared() snapshot and a
// boxed Rumor per broadcast); a d-1024x64 run measures 314 (1 449 with a
// few objects per machine and a map of future-phase views).
func TestBroadcastAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, c := range []struct {
		name   string
		n, t   int
		budget float64 // allocations per run
		build  func() (func(int) sim.Stepper, error)
		adv    func() sim.Adversary
	}{
		{"gossip-2048x64", 2048, 64, 440, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 2048, T: 64})
		}, func() sim.Adversary { return adversary.NewCascade(16, 63) }},
		{"d-1024x64", 1024, 64, 345, func() (func(int) sim.Stepper, error) {
			return ProtocolDSteppers(DConfig{N: 1024, T: 64})
		}, func() sim.Adversary { return adversary.NewRandom(0.01, 63, 1) }},
	} {
		var err error
		got := testing.AllocsPerRun(20, func() {
			var steppers func(int) sim.Stepper
			if steppers, err = c.build(); err != nil {
				return
			}
			_, err = RunSteppers(c.n, c.t, steppers, RunOptions{Adversary: c.adv()})
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocations per run", c.name, got)
		if got > c.budget {
			t.Errorf("%s: a run allocates %.0f times, budget %.0f", c.name, got, c.budget)
		}
	}
}
