package dynamic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// f7Config is the failure-free dynamic run at F7's largest shape: 128
// units arriving round-robin at 16 sites over the first 6 of 7 phases.
func f7Config() Config {
	const n, t, phases = 128, 16, 7
	inj := make([]Injection, n)
	for u := 1; u <= n; u++ {
		inj[u-1] = Injection{Phase: 1 + (u-1)%(phases-1), Process: (u - 1) % t, Unit: u}
	}
	return Config{T: t, Units: n, Phases: phases, Injections: inj}
}

// TestDynamicAllocBudget is the allocation budget of a whole failure-free
// 128×16×7 dynamic run: build, engine run and every agreement round. A site
// runs core.EBARound, which allocates nothing per round, publishes from
// append-only slabs and carves its sets from the builder's: the run
// measures 142 allocations (4 844 with a heard map, a U clone and a member
// list per round, three clones per phase, copy-on-write Shared() views and
// a by-value View boxed per broadcast).
func TestDynamicAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	cfg := f7Config()
	var err error
	got := testing.AllocsPerRun(20, func() {
		var steppers func(int) sim.Stepper
		if steppers, err = Steppers(cfg); err != nil {
			return
		}
		_, err = core.RunSteppers(cfg.Units, cfg.T, steppers, core.RunOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per run", got)
	const budget = 160
	if got > budget {
		t.Errorf("a run allocates %.0f times, budget %d", got, budget)
	}
}
