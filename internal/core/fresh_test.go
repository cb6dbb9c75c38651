package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestSteppersFreshPerCall pins the factory contract every builder keeps
// while it carves its machines from per-builder slabs: Steppers(id) returns
// a fresh machine on every call, and one Procs value may back several
// engines at once. For every protocol in the table, two machines built for
// the same ids run, one run after the other, to the Result of a fresh
// build, and so do two engines running one Procs concurrently (the race
// detector watches the shared builder).
func TestSteppersFreshPerCall(t *testing.T) {
	const n, tt = 32, 8
	for _, p := range core.Protocols {
		t.Run(p.Name, func(t *testing.T) {
			build := func() core.Procs {
				pr, err := p.Build(n, tt, core.Params{K: 4})
				if err != nil {
					t.Fatal(err)
				}
				return pr
			}
			opt := func() core.RunOptions {
				o := core.RunOptions{Adversary: adversary.NewChain(
					adversary.NewCascade(5, tt-2),
					adversary.NewSchedule(adversary.Crash{PID: tt - 1, Round: 3, RestartAt: 9}),
				)}
				if p.Bandwidth != nil {
					o.Bandwidth = p.Bandwidth(tt)
				}
				return o
			}
			run := func(steppers func(int) sim.Stepper) sim.Result {
				res, err := core.RunSteppers(n, tt, steppers, opt())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(build().Steppers)
			if want.Crashes == 0 {
				t.Fatalf("the adversary crashed nobody: %+v", want)
			}

			// Two machines per id from one builder, in interleaved build
			// order; each set runs on its own after the other has run.
			pr := build()
			first := make([]sim.Stepper, tt)
			second := make([]sim.Stepper, tt)
			for id := range first {
				first[id], second[id] = pr.Steppers(id), pr.Steppers(id)
				if reflect.ValueOf(first[id]).Kind() == reflect.Pointer && first[id] == second[id] {
					t.Fatalf("Steppers(%d) returned the same machine twice", id)
				}
			}
			for i, set := range [][]sim.Stepper{first, second} {
				if got := run(func(id int) sim.Stepper { return set[id] }); !reflect.DeepEqual(got, want) {
					t.Errorf("machine set %d: got %+v, want a fresh build's %+v", i, got, want)
				}
			}

			// Two engines running one Procs concurrently.
			pr = build()
			var wg sync.WaitGroup
			got := make([]sim.Result, 2)
			errs := make([]error, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = core.RunProcs(n, tt, pr, opt())
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("concurrent engine %d: got %+v, want a fresh build's %+v", i, got[i], want)
				}
			}
		})
	}
}
