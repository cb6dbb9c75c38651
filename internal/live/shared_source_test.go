package live_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/sim"
)

// TestSharedSourceLiveWorkers runs the protocols that publish views on the
// live plane at t = 64, where every process steps on its own worker: the
// machines of one build cut their arena slabs from the build's shared
// sources concurrently while recipients read earlier entries. The Result
// must equal the engine's; the race detector watches the sources.
func TestSharedSourceLiveWorkers(t *testing.T) {
	const tt = 64
	dyn := func(n int) (func(int) sim.Stepper, error) {
		const phases = 4
		inj := make([]dynamic.Injection, n)
		for u := 1; u <= n; u++ {
			inj[u-1] = dynamic.Injection{Phase: 1 + (u-1)%(phases-1), Process: (u - 1) % tt, Unit: u}
		}
		return dynamic.Steppers(dynamic.Config{T: tt, Units: n, Phases: phases, Injections: inj})
	}
	for _, c := range []struct {
		planeCase
		n   int
		adv func() sim.Adversary
	}{
		{planeCase{name: "gossip", steppers: func() (func(int) sim.Stepper, error) {
			return core.SteppersFor(core.GossipProcs(core.GossipConfig{N: 1024, T: tt}))
		}}, 1024, func() sim.Adversary { return adversary.NewCascade(16, tt-1) }},
		{planeCase{name: "d", steppers: func() (func(int) sim.Stepper, error) {
			return core.SteppersFor(core.ProtocolDProcs(core.DConfig{N: 1024, T: tt}))
		}}, 1024, func() sim.Adversary { return adversary.NewRandom(0.01, tt-1, 1) }},
		{planeCase{name: "dynamic", steppers: func() (func(int) sim.Stepper, error) { return dyn(512) }},
			512, func() sim.Adversary { return adversary.NewSchedule(adversary.Crash{PID: 3, Round: 40}) }},
	} {
		t.Run(fmt.Sprintf("%s/n=%d,t=%d", c.name, c.n, tt), func(t *testing.T) {
			if _, err := runBoth(t, c.n, tt, c.planeCase, c.adv, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}
