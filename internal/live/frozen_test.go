package live

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// shareStepper performs every t-th unit of 1..n from its own PID on, then
// halts, so PerProc's Work and RetireRound differ with the run's shape.
type shareStepper struct{ next, n, t int }

func (s *shareStepper) Step(*sim.Proc) sim.Yield {
	if s.next > s.n {
		return sim.Yield{Kind: sim.YieldHalt}
	}
	u := s.next
	s.next += s.t
	return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{WorkUnit: u}}
}

// TestReturnedStatsFrozen is sim's test of the same name on the live plane:
// one plane recycled the way Run's pool recycles it (reset, run, scrub),
// over enough runs of varying shape to roll its core's stats slab over
// several times. Every returned Result must stay equal to a deep copy taken
// at return — after later runs, and after appends to every earlier PerProc.
func TestReturnedStatsFrozen(t *testing.T) {
	pl := &Plane{}
	var held, want []sim.Result
	rollovers := 0
	for run := range 200 {
		n, procs := 1+run%13, 2+run%3
		pl.reset(Config{NumProcs: procs, NumUnits: n}, func(id int) sim.Stepper {
			return &shareStepper{next: id + 1, n: n, t: procs}
		})
		res, err := pl.Run()
		pl.scrub()
		if err != nil {
			t.Fatal(err)
		}
		if k := len(held); k > 0 {
			prev := held[k-1].PerProc
			end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev))*unsafe.Sizeof(sim.ProcStats{}))
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
			for _, res := range held {
				_ = append(res.PerProc, sim.ProcStats{Work: -1, Sent: -1})
			}
		}
		for i := range held {
			if !reflect.DeepEqual(held[i], want[i]) {
				t.Fatalf("Result of run %d changed %s:\n%+v\nwant\n%+v", i, verb, held[i], want[i])
			}
		}
	}
}
