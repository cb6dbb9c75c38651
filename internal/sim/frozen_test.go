package sim

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// statsSteppers splits units 1..n round-robin over t processes, each
// halting after its share, so PerProc's Work and RetireRound differ with
// the run's shape.
func statsSteppers(n, t int) func(int) Stepper {
	return func(id int) Stepper {
		next := id + 1
		return funcStepper(func(*Proc) Yield {
			if next > n {
				return Yield{Kind: YieldHalt}
			}
			u := next
			next += t
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: u}}
		})
	}
}

// TestReturnedStatsFrozen holds the Result of every run on one reused
// engine, over enough runs of varying shape to roll the core's stats slab
// over several times. Each PerProc is carved from the slab and must stay
// the caller's: every returned Result must stay equal to a deep copy taken
// at return — after later runs, and after appends to every earlier
// PerProc. internal/live holds the live plane's pooled core to the same.
func TestReturnedStatsFrozen(t *testing.T) {
	var e Engine
	var held, want []Result
	rollovers := 0
	for run := range 200 {
		n, procs := 1+run%13, 2+run%3
		e.Reset(Config{NumProcs: procs, NumUnits: n}, statsSteppers(n, procs))
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k := len(held); k > 0 {
			// A PerProc that does not directly follow its predecessor in
			// memory was carved from a fresh slab.
			prev := held[k-1].PerProc
			end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev))*unsafe.Sizeof(ProcStats{}))
			if unsafe.Pointer(unsafe.SliceData(res.PerProc)) != end {
				rollovers++
			}
		}
		cp := res
		cp.PerProc = slices.Clone(res.PerProc)
		held, want = append(held, res), append(want, cp)
	}
	if rollovers < 3 {
		t.Fatalf("%d runs rolled the stats slab over %d times, want >= 3", len(held), rollovers)
	}
	for step, verb := range []string{"after later runs", "after appends to earlier PerProcs"} {
		if step == 1 {
			// An append that could reach past its own entries would
			// overwrite the next Result's.
			for _, res := range held {
				_ = append(res.PerProc, ProcStats{Work: -1, Sent: -1})
			}
		}
		for i := range held {
			if !reflect.DeepEqual(held[i], want[i]) {
				t.Fatalf("Result of run %d changed %s:\n%+v\nwant\n%+v", i, verb, held[i], want[i])
			}
		}
	}
}
