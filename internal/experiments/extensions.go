package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/sim"
)

// T9Bootstrap reproduces §1's common-knowledge removal: agree on the pool
// first, then do the work; total cost at most doubles when n = Ω(t).
func T9Bootstrap() Table {
	t := Table{
		ID:    "T9",
		Title: "Bootstrapped runs: work not initially common knowledge",
		Claim: "§1: one process runs agreement on the pool of work, then the same protocol performs it; " +
			"for n = Ω(t) the overall cost at most doubles (checked at 2.5× for stage-boundary slack)",
		Columns: []string{"proto", "n", "t", "f", "adversary", "boot effort ≤ 2.5×direct", "boot rounds", "complete"},
	}
	for _, c := range []struct {
		proto agreement.WorkProtocol
		n, tt int
	}{{agreement.UseB, 64, 8}, {agreement.UseB, 128, 16}, {agreement.UseA, 64, 8}} {
		for _, advName := range []string{"none", "cascade"} {
			f := c.tt - 1
			pool := make([]int, c.n)
			for i := range pool {
				pool[i] = i + 1
			}
			mkAdv := func() core.RunOptions {
				opt := core.RunOptions{MaxActive: 1, DetailedMetrics: true}
				if advName == "cascade" {
					opt.Adversary = adversary.NewCascade(max(1, c.n/c.tt), f)
				}
				return opt
			}
			boot, err := bootstrap.Run(bootstrap.Config{
				Pool: pool, T: c.tt, F: f, Protocol: c.proto,
			}, mkAdv())
			if err != nil {
				t.Err = fmt.Errorf("%s n=%d %s: %w", c.proto, c.n, advName, err)
				return t
			}
			procsOf := core.ProtocolBProcs
			if c.proto == agreement.UseA {
				procsOf = core.ProtocolAProcs
			}
			procs, err := procsOf(core.ABConfig{N: c.n, T: c.tt})
			if err != nil {
				t.Err = err
				return t
			}
			direct, err := core.RunProcs(c.n, c.tt, procs, mkAdv())
			if err != nil {
				t.Err = err
				return t
			}
			bootEffort := boot.Sim.WorkTotal + boot.Sim.Messages
			directEffort := direct.WorkTotal + direct.Messages
			ok := boot.Sim.Complete()
			t.Rows = append(t.Rows, []Cell{
				V(c.proto), V(c.n), V(c.tt), V(f), V(advName),
				B(bootEffort, directEffort*5/2),
				V(boot.Sim.Rounds),
				{Value: fmt.Sprint(ok), OK: &ok},
			})
		}
	}
	return t
}

// F7DynamicWork exercises the §4 remark: work arriving continually at
// individual sites, agreed and redistributed every period.
func F7DynamicWork() Table {
	t := Table{
		ID:    "F7",
		Title: "Dynamic work: periodic agreement over continually arriving units (§4 remark)",
		Claim: "§4: 'it is not too hard to modify our last algorithm to deal with a more realistic scenario, " +
			"where work is continually coming in to different sites' — every unit known to a surviving site " +
			"is performed; failure-free work is exactly n",
		Columns: []string{"n", "t", "phases", "crashes", "work", "messages", "rounds", "complete"},
	}
	for _, c := range []struct {
		n, tt, phases, crashes int
	}{{64, 8, 5, 0}, {64, 8, 5, 3}, {128, 16, 7, 6}} {
		inj := make([]dynamic.Injection, c.n)
		for u := 1; u <= c.n; u++ {
			inj[u-1] = dynamic.Injection{
				Phase:   1 + (u-1)%(c.phases-1),
				Process: (u - 1) % c.tt,
				Unit:    u,
			}
		}
		steppers, err := dynamic.Steppers(dynamic.Config{
			T: c.tt, Units: c.n, Phases: c.phases, Injections: inj,
		})
		if err != nil {
			t.Err = err
			return t
		}
		// Crash high-numbered sites in the last round of work of the
		// failure-free run: every arrival has been through an agreement
		// phase by then, and the survivors redo the victims' last units in
		// the final phase.
		var crashes []adversary.Crash
		if c.crashes > 0 {
			var last int64
			if _, err := core.RunSteppers(c.n, c.tt, steppers, core.RunOptions{Tracer: func(e sim.Event) {
				if e.Work > 0 {
					last = max(last, e.Round)
				}
			}}); err != nil {
				t.Err = err
				return t
			}
			for k := 0; k < c.crashes; k++ {
				crashes = append(crashes, adversary.Crash{PID: c.tt - 1 - k, Round: last})
			}
		}
		res, err := core.RunSteppers(c.n, c.tt, steppers, core.RunOptions{
			Adversary: adversary.NewSchedule(crashes...), DetailedMetrics: true,
		})
		if err != nil {
			t.Err = err
			return t
		}
		ok := res.Complete()
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.tt), V(c.phases), V(res.Crashes),
			V(res.WorkTotal), V(res.Messages), V(res.Rounds),
			{Value: fmt.Sprint(ok), OK: &ok},
		})
	}
	return t
}
