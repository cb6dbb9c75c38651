package live_test

// Cross-plane conformance suite for the extended fault alphabet: every
// fault kind — send omission, transient message loss, crash recovery, rate
// degradation, and their compositions — run on the single-threaded sim
// engine and the concurrent live plane over the same protocol × grid table,
// requiring reflect.DeepEqual Results, identical error text and identical
// event traces. A fault kind whose two executions diverge in any observable
// is a conformance bug on one of the planes, by construction.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// faultAdversaries builds fresh single-use adversaries per fault kind. Each
// entry exercises one letter of the alphabet (or a composition) through the
// same decision points both planes share.
func faultAdversaries(n, t int) map[string]func() sim.Adversary {
	advs := map[string]func() sim.Adversary{
		// Transient message loss: seeded rng consulted once per delivery in
		// delivery order on both planes.
		"loss": func() sim.Adversary { return adversary.NewLoss(0.1, t-1, 11) },
		// Rate degradation via the adversary verdict: process 0 runs at
		// quarter speed from round 2.
		"slowdown": func() sim.Adversary { return &adversary.Slowdown{PID: 0, Round: 2, Factor: 4} },
		// Crash recovery via the schedule: a round crash with a scheduled
		// restart, plus an action crash whose restart rides the verdict.
		"restart-schedule": func() sim.Adversary {
			return adversary.NewSchedule(
				adversary.Crash{PID: 0, Round: 2, RestartAt: 6},
				adversary.Crash{PID: 1, AtAction: 2, KeepWork: true, RestartAt: 9},
			)
		},
		// Full-alphabet storm: loss, slowdown and recovering crashes chained;
		// every member sees every delivery, so the rng stream is shared
		// deterministically across planes.
		"storm": func() sim.Adversary {
			return adversary.NewChain(
				adversary.NewLoss(0.05, t-1, 7),
				&adversary.Slowdown{PID: t - 1, Round: 1, Factor: 3},
				adversary.NewSchedule(
					adversary.Crash{PID: 0, Round: 3, RestartAt: 7},
					adversary.Crash{PID: 1, AtAction: 3},
				),
			)
		},
		// A process crashed in the middle of a stall, with mail staged for it
		// while it was stalled: the revival must not see that pre-crash mail.
		"stall-crash-restart": func() sim.Adversary {
			return adversary.NewChain(
				&adversary.Slowdown{PID: 1, Round: 0, Factor: 6},
				adversary.NewSchedule(adversary.Crash{PID: 1, Round: 5, RestartAt: 9}),
			)
		},
	}
	// Replayed explore.Vector schedules over the extended grammar: send
	// omission, message drop, slowdown, and crash-with-restart choices.
	vectors := []string{
		"0@a2:omit:p1",
		"0@a1:omit:m0,1@d2",
		fmt.Sprintf("0@r1:slow:4,%d@d3", t-1),
		"0@a2:keep:p1:restart@r8,1@r2:restart@r6",
		fmt.Sprintf("0@a1:lose:p0:restart@r5,1@r0:slow:2,%d@r3", t-1),
	}
	for _, s := range vectors {
		vec, err := explore.ParseVector(s)
		if err != nil {
			panic(err)
		}
		advs["vector-"+s] = func() sim.Adversary { return vec.Adversary() }
	}
	return advs
}

// runBothTraced mirrors runBoth and additionally captures and compares the
// full event trace of both planes.
func runBothTraced(t *testing.T, n, tt int, c planeCase, mkAdv func() sim.Adversary) (sim.Result, error) {
	t.Helper()
	steppers, err := c.steppers()
	if err != nil {
		t.Fatalf("steppers: %v", err)
	}
	var simTrace []sim.Event
	simRes, simErr := core.RunSteppers(n, tt, steppers, core.RunOptions{
		Adversary:       mkAdv(),
		MaxActive:       c.maxActive,
		Bandwidth:       c.bandwidth,
		DetailedMetrics: true,
		Tracer:          func(e sim.Event) { simTrace = append(simTrace, e) },
	})
	steppers, err = c.steppers() // protocol state is single-use; rebuild
	if err != nil {
		t.Fatalf("steppers: %v", err)
	}
	var liveTrace []sim.Event
	liveRes, liveErr := live.Run(live.Config{
		NumProcs:        tt,
		NumUnits:        n,
		Adversary:       mkAdv(),
		MaxActive:       c.maxActive,
		Bandwidth:       c.bandwidth,
		DetailedMetrics: true,
		Tracer:          func(e sim.Event) { liveTrace = append(liveTrace, e) },
	}, steppers)
	if fmt.Sprint(simErr) != fmt.Sprint(liveErr) {
		t.Fatalf("plane errors diverge:\nsim:  %v\nlive: %v", simErr, liveErr)
	}
	if !reflect.DeepEqual(simRes, liveRes) {
		t.Fatalf("planes diverge:\nsim:  %+v\nlive: %+v", simRes, liveRes)
	}
	if !reflect.DeepEqual(simTrace, liveTrace) {
		t.Fatalf("plane traces diverge: sim %d events, live %d events\nsim:  %+v\nlive: %+v",
			len(simTrace), len(liveTrace), simTrace, liveTrace)
	}
	return liveRes, liveErr
}

// TestFaultConformance is the cross-plane equivalence matrix over protocol ×
// fault kind × grid.
func TestFaultConformance(t *testing.T) {
	grids := []struct{ n, t int }{{16, 4}, {24, 8}, {30, 7}}
	for _, g := range grids {
		for _, c := range planeCases(g.n, g.t) {
			for advName, mkAdv := range faultAdversaries(g.n, g.t) {
				name := fmt.Sprintf("%s/n=%d,t=%d/%s", c.name, g.n, g.t, advName)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runBothTraced(t, g.n, g.t, c, mkAdv)
				})
			}
		}
	}
}

// TestFaultConformanceWireTCP is the third-substrate leg of the fault
// matrix: the same protocol × fault-alphabet configurations — omission,
// loss, slowdown, crash-restart, the composed storm — run as a loopback-TCP
// wire cluster (serve-side plane, two socket-joined worker hosts) and must
// produce the engine's exact Result and trace, including crash
// checkpoint/restore relayed as control frames.
func TestFaultConformanceWireTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	g := struct{ n, t int }{16, 4}
	for _, proto := range []string{"a", "b", "c", "d", "gossip"} {
		for advName, mkAdv := range faultAdversaries(g.n, g.t) {
			name := fmt.Sprintf("%s/n=%d,t=%d/%s", proto, g.n, g.t, advName)
			proto, mkAdv := proto, mkAdv
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				requireWireConformance(t, wireCluster{protocol: proto, n: g.n, tt: g.t, joins: 2}, mkAdv)
			})
		}
	}
}

// TestFaultConformanceReplayDeterminism replays the heaviest composed
// adversary twice on each plane: seeded fault schedules must be exactly
// reproducible, not merely plane-equivalent.
func TestFaultConformanceReplayDeterminism(t *testing.T) {
	g := struct{ n, t int }{24, 8}
	for _, c := range planeCases(g.n, g.t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			mkAdv := faultAdversaries(g.n, g.t)["storm"]
			r1, err1 := runBothTraced(t, g.n, g.t, c, mkAdv)
			r2, err2 := runBothTraced(t, g.n, g.t, c, mkAdv)
			if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(r1, r2) {
				t.Fatalf("replay diverges:\nfirst:  %+v (%v)\nsecond: %+v (%v)", r1, err1, r2, err2)
			}
		})
	}
}

// TestConformanceRestartObservables pins the restart bookkeeping both
// planes must agree on: a recovered process shows in Restarts (global and
// per-proc) and finishes the protocol.
func TestConformanceRestartObservables(t *testing.T) {
	n, tt := 16, 4
	mkAdv := func() sim.Adversary {
		return adversary.NewSchedule(adversary.Crash{PID: 1, Round: 2, RestartAt: 5})
	}
	for _, c := range planeCases(n, tt) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res, err := runBothTraced(t, n, tt, c, mkAdv)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Crashes != 1 {
				t.Fatalf("crashes = %d, want 1", res.Crashes)
			}
			if res.Restarts != 1 || res.PerProc[1].Restarts != 1 {
				t.Fatalf("restarts = %d (proc 1: %d), want 1/1", res.Restarts, res.PerProc[1].Restarts)
			}
			if err := core.CheckCompletion(res); err != nil {
				t.Fatalf("completion after recovery: %v", err)
			}
		})
	}
}
