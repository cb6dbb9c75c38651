package live_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// The live plane must be indistinguishable from the single-threaded sim
// engine in everything but execution mechanics: same Result — work,
// messages (by kind), rounds, events, per-process stats — and same error,
// for every protocol, instance size and adversary, including replayed
// adversary.Vector crash schedules with mid-broadcast delivery masks.

type planeCase struct {
	name      string
	steppers  func() (func(int) sim.Stepper, error)
	maxActive int
	// bandwidth, when > 0, runs both planes under the congested-clique
	// per-round outbound cap (sim/live Config.Bandwidth).
	bandwidth int
}

func planeCases(n, t int) []planeCase {
	fromProcs := func(pr core.Procs, err error) (func(int) sim.Stepper, error) {
		if err != nil {
			return nil, err
		}
		if pr.Steppers == nil {
			return nil, fmt.Errorf("default config should build steppers")
		}
		return pr.Steppers, nil
	}
	return []planeCase{
		{
			name: "A",
			steppers: func() (func(int) sim.Stepper, error) {
				return fromProcs(core.ProtocolAProcs(core.ABConfig{N: n, T: t}))
			},
			maxActive: 1,
		},
		{
			name: "B",
			steppers: func() (func(int) sim.Stepper, error) {
				return fromProcs(core.ProtocolBProcs(core.ABConfig{N: n, T: t}))
			},
			maxActive: 1,
		},
		{
			name:      "C",
			steppers:  func() (func(int) sim.Stepper, error) { return fromProcs(core.ProtocolCProcs(core.CConfig{N: n, T: t})) },
			maxActive: 1,
		},
		{
			name: "C-lowmsg",
			steppers: func() (func(int) sim.Stepper, error) {
				return fromProcs(core.ProtocolCProcs(core.CConfig{N: n, T: t, ReportEvery: max(1, n/t)}))
			},
			maxActive: 1,
		},
		{
			name:     "D",
			steppers: func() (func(int) sim.Stepper, error) { return fromProcs(core.ProtocolDProcs(core.DConfig{N: n, T: t})) },
		},
		{
			name: "gossip",
			steppers: func() (func(int) sim.Stepper, error) {
				return fromProcs(core.GossipProcs(core.GossipConfig{N: n, T: t}))
			},
		},
		{
			// The congested-clique leg: the same gossip machines under a
			// bandwidth cap of half the fanout, so every epoch's rumor
			// overflow exercises the deferred-send queue on both planes.
			name: "gossip-cap",
			steppers: func() (func(int) sim.Stepper, error) {
				return fromProcs(core.GossipProcs(core.GossipConfig{N: n, T: t}))
			},
			bandwidth: max(1, (core.GossipFanout(t)+1)/2),
		},
	}
}

// planeAdversaries builds fresh (stateful) adversaries per run.
func planeAdversaries(n, t int) map[string]func() sim.Adversary {
	advs := map[string]func() sim.Adversary{
		"none":    func() sim.Adversary { return nil },
		"cascade": func() sim.Adversary { return adversary.NewCascade(max(1, n/t), t-1) },
	}
	for _, seed := range []int64{1, 42} {
		advs[fmt.Sprintf("random-%d", seed)] = func() sim.Adversary {
			return adversary.NewRandom(0.05, t-1, seed)
		}
	}
	if t > 1 {
		advs["sleep-crash"] = func() sim.Adversary {
			return adversary.NewSchedule(adversary.Crash{PID: t - 1, Round: 2})
		}
	}
	// Replayed adversary.Vector schedules: action-triggered crashes with
	// keep-work and delivery masks (mid-broadcast crashes) plus a round
	// trigger, the exact decision grammar the exploration subsystem walks.
	vectors := []string{
		"0@a3:keep:p1",
		"0@a2:lose:m5,1@a4:keep:p2",
		fmt.Sprintf("1@a1:lose:p0,%d@r4", t-1),
	}
	for _, s := range vectors {
		vec, err := adversary.ParseVector(s)
		if err != nil {
			panic(err)
		}
		advs["vector-"+s] = func() sim.Adversary { return vec.Adversary() }
	}
	return advs
}

// runBoth executes the same configuration on the sim engine and on the live
// plane and requires identical outcomes. The transport argument lets cases
// inject latency/jitter; nil means the default immediate channel transport.
func runBoth(t *testing.T, n, tt int, c planeCase, mkAdv func() sim.Adversary, tr live.Transport) (sim.Result, error) {
	t.Helper()
	steppers, err := c.steppers()
	if err != nil {
		t.Fatalf("steppers: %v", err)
	}
	simRes, simErr := core.RunSteppers(n, tt, steppers, core.RunOptions{
		Adversary:       mkAdv(),
		MaxActive:       c.maxActive,
		Bandwidth:       c.bandwidth,
		DetailedMetrics: true,
	})
	steppers, err = c.steppers() // protocol state is single-use; rebuild
	if err != nil {
		t.Fatalf("steppers: %v", err)
	}
	liveRes, liveErr := live.Run(live.Config{
		NumProcs:        tt,
		NumUnits:        n,
		Adversary:       mkAdv(),
		MaxActive:       c.maxActive,
		Bandwidth:       c.bandwidth,
		DetailedMetrics: true,
		Transport:       tr,
	}, steppers)
	if fmt.Sprint(simErr) != fmt.Sprint(liveErr) {
		t.Fatalf("plane errors diverge:\nsim:  %v\nlive: %v", simErr, liveErr)
	}
	if !reflect.DeepEqual(simRes, liveRes) {
		t.Fatalf("planes diverge:\nsim:  %+v\nlive: %+v", simRes, liveRes)
	}
	return liveRes, liveErr
}

func TestLivePlaneEquivalence(t *testing.T) {
	grids := []struct{ n, t int }{{16, 4}, {24, 8}, {30, 7}, {144, 12}}
	for _, g := range grids {
		for _, c := range planeCases(g.n, g.t) {
			for advName, mkAdv := range planeAdversaries(g.n, g.t) {
				name := fmt.Sprintf("%s/n=%d,t=%d/%s", c.name, g.n, g.t, advName)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := runBoth(t, g.n, g.t, c, mkAdv, nil)
					if err == nil {
						if err := core.CheckCompletion(res); err != nil {
							t.Fatalf("completion: %v", err)
						}
					}
				})
			}
		}
	}
}

// TestLivePlaneHorizonError: at Protocol C's horizon (192×48, where its
// deadlines saturate at sim.Forever) both planes fail with the same error,
// which wraps sim.ErrDeadlock and names the saturated process.
func TestLivePlaneHorizonError(t *testing.T) {
	c := planeCases(192, 48)[2]
	if c.name != "C" {
		t.Fatalf("plane case %q, want C", c.name)
	}
	_, err := runBoth(t, 192, 48, c, func() sim.Adversary { return nil }, nil)
	if !errors.Is(err, sim.ErrDeadlock) || !strings.Contains(err.Error(), "proc 1's deadline saturated") {
		t.Fatalf("err = %v, want the horizon error", err)
	}
}

// TestLivePlaneEquivalenceUnderJitter re-runs a slice of the grid over a
// transport that delays every yield by a random 0–200µs: arrival order at
// the coordinator is scrambled for real, the Result must not move.
func TestLivePlaneEquivalenceUnderJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock jitter sleeps")
	}
	g := struct{ n, t int }{24, 8}
	for _, c := range planeCases(g.n, g.t) {
		for advName, mkAdv := range planeAdversaries(g.n, g.t) {
			name := fmt.Sprintf("%s/%s", c.name, advName)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				tr := live.NewChanTransport(live.Latency{Jitter: 200 * time.Microsecond, Seed: 7})
				runBoth(t, g.n, g.t, c, mkAdv, tr)
			})
		}
	}
}

// TestLivePlaneScriptSubstrate runs the uniform-checkpoint and naive-spread
// baselines on the live plane under a cascade: the Result must
// reflect.DeepEqual the engine's, and once the plane has shut down no
// worker is left, crashed ones included. The name is historical: these
// bodies were blocking scripts before they became Steppers.
func TestLivePlaneScriptSubstrate(t *testing.T) {
	n, tt := 24, 6
	for name, build := range map[string]func() (core.Procs, error){
		"uniform": func() (core.Procs, error) { return core.UniformCheckpointProcs(core.UniformConfig{N: n, T: tt, K: 4}) },
		"naive":   func() (core.Procs, error) { return core.NaiveSpreadProcs(core.NaiveConfig{N: n, T: tt}) },
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			mkAdv := func() sim.Adversary { return adversary.NewCascade(2, tt-1) }
			pr, err := build()
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := core.RunProcs(n, tt, pr, core.RunOptions{
				Adversary: mkAdv(), MaxActive: 1, DetailedMetrics: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pr, err = build()
			if err != nil {
				t.Fatal(err)
			}
			liveRes, err := live.Run(live.Config{
				NumProcs: tt, NumUnits: n, Adversary: mkAdv(), MaxActive: 1, DetailedMetrics: true,
			}, pr.Steppers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(simRes, liveRes) {
				t.Fatalf("planes diverge:\nsim:  %+v\nlive: %+v", simRes, liveRes)
			}
			if simRes.Crashes == 0 {
				t.Fatal("the cascade crashed no process")
			}
			// A worker may still be returning after the plane's WaitGroup
			// released Run, so the count is given a bounded while to settle.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// TestLivePlaneSingleUse pins the single-use contract.
func TestLivePlaneSingleUse(t *testing.T) {
	pr, err := core.ProtocolAProcs(core.ABConfig{N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	pl := live.New(live.Config{NumProcs: 2, NumUnits: 4}, pr.Steppers)
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(); err == nil {
		t.Fatal("second Run should refuse")
	}
}

// TestLivePoolResetDeterminism is the live twin of the engine's
// TestEngineResetDeterminism: successive live.Run calls draw the same plane
// — and the round core it carries — from the pool, across a grown shape, a
// shrunk one, the same one again, and two aborted runs. Every pooled run
// must equal a fresh plane's and the engine's, Result and error text alike:
// reuse is invisible.
func TestLivePoolResetDeterminism(t *testing.T) {
	// panicAt wraps process 2 to panic at round 3 (see panicAfter).
	panicAt := func(steppers func(int) sim.Stepper) func(int) sim.Stepper {
		return func(id int) sim.Stepper {
			if id == 2 {
				return panicAfter{inner: steppers(id), id: id}
			}
			return steppers(id)
		}
	}
	steps := []struct {
		name     string
		n, t     int
		maxRound int64
		wrap     func(func(int) sim.Stepper) func(int) sim.Stepper
		wantErr  error
	}{
		{name: "start", n: 16, t: 4},
		{name: "grown", n: 256, t: 64},
		{name: "shrunk", n: 24, t: 8},
		{name: "same", n: 24, t: 8},
		{name: "round-limit", n: 24, t: 8, maxRound: 4, wantErr: sim.ErrRoundLimit},
		{name: "panic", n: 24, t: 8, wrap: panicAt},
		{name: "after-aborts", n: 24, t: 8},
	}
	for _, s := range steps {
		// gossip-cap under the storm: deferred-send queues, staged mail,
		// restart and sleeper heaps all carry state worth recycling wrongly.
		var c planeCase
		for _, pc := range planeCases(s.n, s.t) {
			if pc.name == "gossip-cap" {
				c = pc
			}
		}
		mkAdv := faultAdversaries(s.n, s.t)["storm"]
		build := func() func(int) sim.Stepper {
			steppers, err := c.steppers()
			if err != nil {
				t.Fatalf("%s: steppers: %v", s.name, err)
			}
			if s.wrap != nil {
				steppers = s.wrap(steppers)
			}
			return steppers
		}
		cfg := func() live.Config {
			return live.Config{
				NumProcs: s.t, NumUnits: s.n, Adversary: mkAdv(), MaxRound: s.maxRound,
				Bandwidth: c.bandwidth, DetailedMetrics: true,
			}
		}
		pooled, pooledErr := live.Run(cfg(), build())
		fresh, freshErr := live.New(cfg(), build()).Run()
		engine, engineErr := core.RunSteppers(s.n, s.t, build(), core.RunOptions{
			Adversary: mkAdv(), MaxRound: s.maxRound, Bandwidth: c.bandwidth, DetailedMetrics: true,
		})
		if s.wantErr != nil && !errors.Is(pooledErr, s.wantErr) {
			t.Fatalf("%s: err = %v, want %v", s.name, pooledErr, s.wantErr)
		}
		if s.wrap != nil && pooledErr == nil {
			t.Fatalf("%s: run did not fail", s.name)
		}
		if fmt.Sprint(pooledErr) != fmt.Sprint(freshErr) || fmt.Sprint(pooledErr) != fmt.Sprint(engineErr) {
			t.Fatalf("%s: errors diverge:\npooled: %v\nfresh:  %v\nengine: %v", s.name, pooledErr, freshErr, engineErr)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("%s: pooled plane diverges from a fresh one:\npooled: %+v\nfresh:  %+v", s.name, pooled, fresh)
		}
		if !reflect.DeepEqual(pooled, engine) {
			t.Fatalf("%s: pooled plane diverges from the engine:\npooled: %+v\nengine: %+v", s.name, pooled, engine)
		}
	}
}
