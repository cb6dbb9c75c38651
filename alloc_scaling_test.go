package doall_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/sharedmem"
	"repro/internal/sim"
)

// Allocation scaling: a run's allocations, minus its build's, at n and 4n
// units with t fixed. A protocol's messages carry O(n)-bit views, so its
// published bytes grow with n, but they are bumped from source slabs of up
// to 32 KiB, and every other per-run part comes from a warm engine and the
// build's slabs: what a run allocates should not grow with n.
const (
	// scalingGrowth bounds how many more objects a run at 4n allocates than
	// one at n: the extra source slabs of the larger views (gossip's are
	// the most, 9 at 1024×32).
	scalingGrowth = 16
	// A run at 4n may allocate at most scalingPerProc/2 objects per process
	// (48 at t = 32), so an allocation per broadcast fails even where the
	// broadcasts do not grow with n: D's failure-free agreement is two
	// broadcasts per process at any n.
	scalingPerProc = 3
)

// scalingAllowed lists the runs exempt from the bounds, by entry and fault,
// with the cause. Every one still allocates per message, and all but
// c-lowmsg's therefore with n. A run that comes within both bounds fails
// the test until it is taken off, so the list only shrinks.
var scalingAllowed = map[string]string{
	"c/none":           "boxes a COrdinary per report, and C reports every unit (n + 8t log t messages)",
	"c/cascade":        "boxes a COrdinary per report, and C reports every unit (n + 8t log t messages)",
	"c-lowmsg/none":    "boxes a COrdinary per report: flat in n, but about 3 objects per process at t = 8",
	"c-lowmsg/cascade": "boxes a COrdinary per report: flat in n, but about 3 objects per process at t = 8",
	"single-checkpoint/none": "boxes a UniformDone per checkpoint (baselines.go), one per unit; " +
		"Go boxes a value under 256 without allocating, so it shows from n = 256",
	"single-checkpoint/cascade": "boxes a UniformDone per checkpoint (baselines.go), one per unit",
	"uniform/cascade":           "boxes a UniformDone per checkpoint (baselines.go); each takeover's pass checkpoints anew",
	"naive/none":                "boxes a NaiveReport per unit report, once its count is 256 or more",
}

// scalingEntry is one protocol of TestAllocScaling: its steppers for an
// (n, t) run, and the engine config of that run under adv.
type scalingEntry struct {
	name  string
	build func(n, t int) (func(int) sim.Stepper, error)
	cfg   func(n, t int, adv sim.Adversary) sim.Config
}

// scalingEntries is every core.Protocols entry, dynamic work and Write-All.
func scalingEntries() []scalingEntry {
	var entries []scalingEntry
	for _, p := range core.Protocols {
		entries = append(entries, scalingEntry{
			name: p.Name,
			build: func(n, t int) (func(int) sim.Stepper, error) {
				return core.SteppersFor(p.Build(n, t, core.Params{K: 4}))
			},
			cfg: func(n, t int, adv sim.Adversary) sim.Config {
				c := sim.Config{NumProcs: t, NumUnits: n, Adversary: adv}
				if p.Bandwidth != nil {
					c.Bandwidth = p.Bandwidth(t)
				}
				return c
			},
		})
	}
	return append(entries, scalingEntry{
		name: "dynamic",
		build: func(n, t int) (func(int) sim.Stepper, error) {
			const phases = 5
			inj := make([]dynamic.Injection, n)
			for u := 1; u <= n; u++ {
				inj[u-1] = dynamic.Injection{Phase: 1 + (u-1)%(phases-1), Process: (u - 1) % t, Unit: u}
			}
			return dynamic.Steppers(dynamic.Config{T: t, Units: n, Phases: phases, Injections: inj})
		},
		cfg: func(n, t int, adv sim.Adversary) sim.Config {
			return sim.Config{NumProcs: t, NumUnits: n, Adversary: adv}
		},
	}, scalingEntry{
		name: "write-all",
		build: func(n, t int) (func(int) sim.Stepper, error) {
			_, s, err := sharedmem.Steppers(sharedmem.Config{N: n, T: t})
			return s, err
		},
		cfg: func(n, t int, adv sim.Adversary) sim.Config {
			return sim.Config{NumProcs: t, NumUnits: n, Adversary: adv, MaxActive: 1}
		},
	})
}

// scalingShape is the smaller unit count and the process count of an
// entry's runs: 256 units over 32 processes, but C, C-lowmsg and
// naive-spread run over 8 and below their horizon. Their takeover deadlines
// grow exponentially and overflow the clock beyond it: under a cascade from
// n = 64 at t = 8 (from n = 32 at t = 32), C-lowmsg's failure-free run from
// n = 512.
func scalingShape(name string, cascade bool) (n, t int) {
	switch name {
	case "c", "c-lowmsg", "naive":
		switch {
		case cascade:
			return 8, 8
		case name == "c-lowmsg":
			return 64, 8
		}
		return 256, 8
	}
	return 256, 32
}

// TestAllocScaling pins that a run allocates O(t), not O(n): every entry
// runs at n and 4n units with t fixed (scalingShape), failure-free and under
// a cascade of t−1 crashes after n/t units each, and a run at 4n may
// allocate at most scalingGrowth objects more than one at n, and at most
// 1.5 per process. Runs on scalingAllowed are exempt, with their cause.
func TestAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	seen := map[string]bool{}
	for _, e := range scalingEntries() {
		for _, fault := range []string{"none", "cascade"} {
			key := e.name + "/" + fault
			seen[key] = true
			n, procs := scalingShape(e.name, fault == "cascade")
			var allocs [2]float64
			for i, n := range []int{n, 4 * n} {
				adv := func() sim.Adversary {
					if fault == "cascade" {
						return adversary.NewCascade(n/procs, procs-1)
					}
					return nil
				}
				allocs[i] = runAllocs(t, e, n, procs, adv)
			}
			t.Logf("%s: %.0f objects at %dx%d, %.0f at %dx%d", key, allocs[0], n, procs, allocs[1], 4*n, procs)
			within := allocs[1]-allocs[0] <= scalingGrowth && allocs[1] <= float64(scalingPerProc*procs/2)
			switch why, allowed := scalingAllowed[key]; {
			case !within && !allowed:
				t.Errorf("%s: a run allocates %.0f objects at %dx%d and %.0f at %dx%d: more than %d more, or more than %d",
					key, allocs[0], n, procs, allocs[1], 4*n, procs, scalingGrowth, scalingPerProc*procs/2)
			case within && allowed:
				t.Errorf("%s no longer allocates with n (%.0f → %.0f objects): take it off scalingAllowed (%s)",
					key, allocs[0], allocs[1], why)
			}
		}
	}
	for key := range scalingAllowed {
		if !seen[key] {
			t.Errorf("scalingAllowed names %s, which no entry runs", key)
		}
	}
}

// runAllocs is the fewest allocations over a few runs of e at (n, t) on one
// warm engine, minus the fewest of building its steppers.
func runAllocs(tb testing.TB, e scalingEntry, n, t int, adv func() sim.Adversary) float64 {
	tb.Helper()
	build := func() func(int) sim.Stepper {
		s, err := e.build(n, t)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	eng := new(sim.Engine)
	run := func() {
		eng.Reset(e.cfg(n, t, adv()), build())
		if _, err := eng.Run(); err != nil {
			tb.Fatal(fmt.Errorf("%s at %dx%d: %w", e.name, n, t, err))
		}
	}
	built, ran := math.Inf(1), math.Inf(1)
	for range allocSamples {
		built = min(built, testing.AllocsPerRun(1, func() {
			s := build()
			for id := 0; id < t; id++ {
				s(id)
			}
		}))
		ran = min(ran, testing.AllocsPerRun(1, run))
	}
	return ran - built
}
