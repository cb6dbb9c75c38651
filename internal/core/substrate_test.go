package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// The stepper machines must be indistinguishable from the scripts they
// transliterate: same Result — work, messages (by kind), rounds, events,
// per-process stats — on every protocol, instance size and adversary.

type substrateCase struct {
	name      string
	procs     func() (Procs, error)
	scripts   func() (func(int) sim.Script, error)
	maxActive int
}

func abCase(name string, build func(ABConfig) (Procs, error), scripts func(ABConfig) (func(int) sim.Script, error), cfg ABConfig) substrateCase {
	return substrateCase{
		name:      name,
		procs:     func() (Procs, error) { return build(cfg) },
		scripts:   func() (func(int) sim.Script, error) { return scripts(cfg) },
		maxActive: 1,
	}
}

func substrateCases(n, t int) []substrateCase {
	cases := []substrateCase{
		abCase("A", ProtocolAProcs, ProtocolAScripts, ABConfig{N: n, T: t}),
		abCase("A-fullonly", ProtocolAProcs, ProtocolAScripts, ABConfig{N: n, T: t, FullOnly: true}),
		abCase("B", ProtocolBProcs, ProtocolBScripts, ABConfig{N: n, T: t}),
		{
			name:      "C",
			procs:     func() (Procs, error) { return ProtocolCProcs(CConfig{N: n, T: t}) },
			scripts:   func() (func(int) sim.Script, error) { return ProtocolCScripts(CConfig{N: n, T: t}) },
			maxActive: 1,
		},
		{
			name: "C-lowmsg",
			procs: func() (Procs, error) {
				return ProtocolCProcs(CConfig{N: n, T: t, ReportEvery: max(1, n/t)})
			},
			scripts: func() (func(int) sim.Script, error) {
				return ProtocolCScripts(CConfig{N: n, T: t, ReportEvery: max(1, n/t)})
			},
			maxActive: 1,
		},
		{
			name:    "D",
			procs:   func() (Procs, error) { return ProtocolDProcs(DConfig{N: n, T: t}) },
			scripts: func() (func(int) sim.Script, error) { return ProtocolDScripts(DConfig{N: n, T: t}) },
		},
		{
			name: "D-norevert",
			procs: func() (Procs, error) {
				return ProtocolDProcs(DConfig{N: n, T: t, DisableRevert: true})
			},
			scripts: func() (func(int) sim.Script, error) {
				return ProtocolDScripts(DConfig{N: n, T: t, DisableRevert: true})
			},
		},
		{
			name:    "gossip",
			procs:   func() (Procs, error) { return GossipProcs(GossipConfig{N: n, T: t}) },
			scripts: func() (func(int) sim.Script, error) { return gossipScripts(GossipConfig{N: n, T: t}) },
		},
		{
			name:    "gossip-seeded",
			procs:   func() (Procs, error) { return GossipProcs(GossipConfig{N: n, T: t, Seed: 42}) },
			scripts: func() (func(int) sim.Script, error) { return gossipScripts(GossipConfig{N: n, T: t, Seed: 42}) },
		},
	}
	return cases
}

// substrateAdversaries builds fresh (stateful) adversaries per run.
func substrateAdversaries(n, t int) map[string]func() sim.Adversary {
	advs := map[string]func() sim.Adversary{
		"none":    func() sim.Adversary { return nil },
		"cascade": func() sim.Adversary { return adversary.NewCascade(max(1, n/t), t-1) },
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		advs[fmt.Sprintf("random-%d", seed)] = func() sim.Adversary {
			return adversary.NewRandom(0.05, t-1, seed)
		}
	}
	if t > 1 {
		advs["sleep-crash"] = func() sim.Adversary {
			// Crash the highest process while it sleeps, early on.
			return adversary.NewSchedule(adversary.Crash{PID: t - 1, Round: 2})
		}
	}
	return advs
}

func TestSubstrateEquivalence(t *testing.T) {
	// Note n + t ≤ 61 keeps Protocol C's exponential deadlines finite; with
	// larger instances a crashed active process deadlocks the run by design
	// (equally on both substrates, which the comparison still verifies).
	grids := []struct{ n, t int }{{16, 4}, {24, 8}, {30, 7}, {144, 12}}
	for _, g := range grids {
		for _, c := range substrateCases(g.n, g.t) {
			for advName, mkAdv := range substrateAdversaries(g.n, g.t) {
				name := fmt.Sprintf("%s/n=%d,t=%d/%s", c.name, g.n, g.t, advName)
				t.Run(name, func(t *testing.T) {
					pr, err := c.procs()
					if err != nil {
						t.Fatalf("procs: %v", err)
					}
					if pr.Steppers == nil {
						t.Fatalf("default config should build on the stepper substrate")
					}
					scripts, err := c.scripts()
					if err != nil {
						t.Fatalf("scripts: %v", err)
					}
					opt := func() RunOptions {
						return RunOptions{
							Adversary:       mkAdv(),
							MaxActive:       c.maxActive,
							DetailedMetrics: true,
						}
					}
					stepped, stepErr := RunSteppers(g.n, g.t, pr.Steppers, opt())
					scripted, scriptErr := Run(g.n, g.t, scripts, opt())
					if fmt.Sprint(stepErr) != fmt.Sprint(scriptErr) {
						t.Fatalf("substrate errors diverge: stepper=%v script=%v", stepErr, scriptErr)
					}
					if !reflect.DeepEqual(stepped, scripted) {
						t.Fatalf("substrates diverge:\nstepper: %+v\nscript:  %+v", stepped, scripted)
					}
					if stepErr == nil {
						if err := CheckCompletion(stepped); err != nil {
							t.Fatalf("completion: %v", err)
						}
					}
				})
			}
		}
	}
}

// TestMixedSubstrateProtocolB runs Protocol B with even positions on native
// steppers and odd positions on coroutine-backed scripts inside one engine,
// and requires the Result to match the pure-substrate runs.
func TestMixedSubstrateProtocolB(t *testing.T) {
	n, tt := 100, 10
	cfg := ABConfig{N: n, T: tt}
	mkAdv := func() sim.Adversary { return adversary.NewCascade(2, tt-1) }
	opt := func() RunOptions {
		return RunOptions{Adversary: mkAdv(), MaxActive: 1, DetailedMetrics: true}
	}
	steppers, err := ProtocolBSteppers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := ProtocolBScripts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := RunSteppers(n, tt, steppers, opt())
	if err != nil {
		t.Fatal(err)
	}
	// Builders keep per-run state (the shared abState); build fresh ones for
	// the mixed engine.
	steppers2, _ := ProtocolBSteppers(cfg)
	mixed, err := RunSteppers(n, tt, func(id int) sim.Stepper {
		if id%2 == 0 {
			return steppers2(id)
		}
		return sim.ScriptStepper(scripts(id))
	}, opt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pure, mixed) {
		t.Fatalf("mixed engine diverges:\npure:  %+v\nmixed: %+v", pure, mixed)
	}
	if err := CheckCompletion(mixed); err != nil {
		t.Fatal(err)
	}
}

// TestSubstrateEquivalenceDeepFailures drives Protocol B and D through long
// crash cascades (t-1 failures) so takeover chores, preactive probing and
// the Protocol D revert all fire on both substrates.
func TestSubstrateEquivalenceDeepFailures(t *testing.T) {
	n, tt := 100, 10
	// Cascade with 1 unit per life forces maximal takeover chains.
	for _, c := range []substrateCase{
		abCase("A", ProtocolAProcs, ProtocolAScripts, ABConfig{N: n, T: tt}),
		abCase("B", ProtocolBProcs, ProtocolBScripts, ABConfig{N: n, T: tt}),
	} {
		t.Run(c.name, func(t *testing.T) {
			pr, _ := c.procs()
			scripts, _ := c.scripts()
			opt := func(adv sim.Adversary) RunOptions {
				return RunOptions{Adversary: adv, MaxActive: 1, DetailedMetrics: true}
			}
			stepped, err := RunSteppers(n, tt, pr.Steppers, opt(adversary.NewCascade(1, tt-1)))
			if err != nil {
				t.Fatal(err)
			}
			scripted, err := Run(n, tt, scripts, opt(adversary.NewCascade(1, tt-1)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stepped, scripted) {
				t.Fatalf("substrates diverge:\nstepper: %+v\nscript:  %+v", stepped, scripted)
			}
			if stepped.Crashes != tt-1 {
				t.Fatalf("cascade injected %d crashes, want %d", stepped.Crashes, tt-1)
			}
		})
	}
	// Protocol D with a mass round-crash to trip the revert to Protocol A.
	for _, kill := range []int{5, 7} {
		kill := kill
		t.Run(fmt.Sprintf("D-revert-%d", kill), func(t *testing.T) {
			crashes := make([]adversary.Crash, 0, kill)
			for pid := tt - kill; pid < tt; pid++ {
				crashes = append(crashes, adversary.Crash{PID: pid, Round: 3})
			}
			mkAdv := func() sim.Adversary { return adversary.NewSchedule(crashes...) }
			pr, err := ProtocolDProcs(DConfig{N: n, T: tt})
			if err != nil {
				t.Fatal(err)
			}
			scripts, err := ProtocolDScripts(DConfig{N: n, T: tt})
			if err != nil {
				t.Fatal(err)
			}
			stepped, err := RunSteppers(n, tt, pr.Steppers, RunOptions{Adversary: mkAdv(), DetailedMetrics: true})
			if err != nil {
				t.Fatal(err)
			}
			scripted, err := Run(n, tt, scripts, RunOptions{Adversary: mkAdv(), DetailedMetrics: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stepped, scripted) {
				t.Fatalf("substrates diverge:\nstepper: %+v\nscript:  %+v", stepped, scripted)
			}
			if err := CheckCompletion(stepped); err != nil {
				t.Fatal(err)
			}
		})
	}
}
