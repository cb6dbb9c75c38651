package core

import (
	"runtime"
	"testing"

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

// TestBuildBudget is the allocation budget of a D and a gossip build, from
// the public constructors. A D machine holds O(n/64 + t) words, so every D
// stepper at n=4096, t=64 measures 465 kB; a member list per process would
// add 2 MiB. A gossip machine holds its two orders in one []int32 row, so
// every gossip stepper at n=2048, t=64 measures 639 kB; the []int orders
// it replaced measured 1.11 MB. Building one process of a large gossip plan
// (a join hosting one PID) draws that process's row alone: 280 kB at
// n=65536, t=16, where drawing every row would cost 4.2 MB.
func TestBuildBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, c := range []struct {
		name   string
		hosted int   // steppers built, PIDs 0..hosted-1
		budget int64 // bytes per build
		build  func() (func(int) sim.Stepper, error)
	}{
		{"d-4096x64", 64, 490_000, func() (func(int) sim.Stepper, error) {
			return ProtocolDSteppers(DConfig{N: 4096, T: 64})
		}},
		{"gossip-2048x64", 64, 660_000, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 2048, T: 64})
		}},
		{"gossip-65536x16-one-process", 1, 300_000, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 65536, T: 16})
		}},
	} {
		var err error
		got := bytesPerBuild(50, func() {
			var steppers func(int) sim.Stepper
			if steppers, err = c.build(); err != nil {
				return
			}
			for id := 0; id < c.hosted; id++ {
				steppers(id)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes", c.name, got)
		if got > c.budget {
			t.Errorf("%s: building %d steppers allocates %d bytes, budget %d", c.name, c.hosted, got, c.budget)
		}
	}
}
