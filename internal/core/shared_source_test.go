package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// TestSharedSourceConcurrentEngines runs two engines at once on one Procs
// of every protocol whose machines publish views, so the machines of both
// engines cut their arena slabs from the one build's shared sources
// concurrently, through several source slabs. Each engine's Result must
// equal a fresh build's, run alone; the race detector watches the sources.
func TestSharedSourceConcurrentEngines(t *testing.T) {
	for _, c := range []struct {
		name  string
		n, t  int
		build func() (Procs, error)
		adv   func() sim.Adversary
	}{
		{"gossip", 1024, 16, func() (Procs, error) { return GossipProcs(GossipConfig{N: 1024, T: 16}) },
			func() sim.Adversary { return adversary.NewCascade(64, 15) }},
		{"d", 2048, 16, func() (Procs, error) { return ProtocolDProcs(DConfig{N: 2048, T: 16}) },
			func() sim.Adversary { return adversary.NewSchedule(adversary.Crash{PID: 5, Round: 200}) }},
		{"c", 64, 8, func() (Procs, error) { return ProtocolCProcs(CConfig{N: 64, T: 8}) },
			func() sim.Adversary { return nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunProcs(c.n, c.t, fresh, RunOptions{Adversary: c.adv()})
			if err != nil {
				t.Fatal(err)
			}
			pr, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			got := make([]sim.Result, 2)
			errs := make([]error, 2)
			first := make([]recoverable, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					steppers := func(id int) sim.Stepper {
						m := pr.Steppers(id)
						if id == 0 {
							first[i] = m.(recoverable)
						}
						return m
					}
					got[i], errs[i] = RunSteppers(c.n, c.t, steppers, RunOptions{Adversary: c.adv()})
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("engine %d: got %+v, want a fresh build's %+v", i, got[i], want)
				}
			}
			if n := sourceSlabs(first[0]); n < 2 {
				t.Fatalf("the two engines drew %d source slab for some payload kind, none rolled over", n)
			}
			t.Logf("at least %d source slabs per payload kind", sourceSlabs(first[0]))
		})
	}
}
