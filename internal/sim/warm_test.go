package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// floodSteppers is a workload whose mail lands in one buffer of each
// swapping pair: process 0 sleeps through the rounds in which every other
// process sends it a burst and broadcasts to everyone, and drains its whole
// backlog once, in a single take, before it halts.
func floodSteppers(t, rounds int) func(id int) Stepper {
	all := make([]int, t)
	for i := range all {
		all[i] = i
	}
	return func(id int) Stepper {
		sends := make([]Send, 4)
		k := 0
		return funcStepper(func(p *Proc) Yield {
			if id == 0 {
				if p.Now() <= int64(rounds) {
					return Yield{Kind: YieldSleep, Until: int64(rounds) + 1}
				}
				p.Drain()
				return Yield{Kind: YieldHalt}
			}
			p.Drain()
			if k++; k > rounds {
				return Yield{Kind: YieldHalt}
			}
			return Yield{Kind: YieldAction, Action: Action{Sends: sends, Broadcast: p.BroadcastTo(all, nil)}}
		})
	}
}

// TestFreshEngineWarmsInOneRun pins how fast a fresh engine reaches its
// steady size: a run leaves both buffers of every swapping pair at the size
// either reached, so the second run on an engine allocates no more than the
// third. The GC is off, so no buffer is collected in between.
func TestFreshEngineWarmsInOneRun(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const procs, rounds = 16, 16
	eng := new(Engine)
	var counts [3]uint64
	for i := range counts {
		steppers := floodSteppers(procs, rounds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.Reset(Config{NumProcs: procs}, steppers)
		_, err := eng.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = after.Mallocs - before.Mallocs
	}
	t.Logf("allocations on runs 1..3: %v", counts)
	if counts[1] > counts[2] {
		t.Errorf("a fresh engine's second run allocates %d objects, more than its third's %d", counts[1], counts[2])
	}
}
