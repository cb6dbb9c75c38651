package main

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// The two cases that exercise every optional interface a decorator must
// forward: the fault storm restarts a process (Recoverable, Restarter) and
// drops messages (DeliveryAdversary); capped gossip defers sends.
func transparencyCases(t *testing.T) []*runCase {
	t.Helper()
	cases := []*runCase{
		{name: "b-256x16-storm", proto: "b", n: 256, t: 16, faults: faultSpec{kind: stormFaults}},
		{name: "gossip-256x16-capped", proto: "gossip", n: 256, t: 16, capped: true, faults: cascade(16, 15)},
	}
	for i, c := range cases {
		if err := c.prepare(7, i); err != nil {
			t.Fatal(err)
		}
	}
	if cases[0].ref.Restarts == 0 || cases[0].ref.Dropped == 0 || cases[1].ref.Deferred == 0 {
		t.Fatalf("cases do not exercise restart, loss and deferral: %+v / %+v", cases[0].ref, cases[1].ref)
	}
	return cases
}

// engineRun runs c on the engine with whichever decorators are asked for.
func engineRun(t *testing.T, c *runCase, decorateSteppers, decorateAdversary bool) sim.Result {
	t.Helper()
	st, err := c.steppers()
	if err != nil {
		t.Fatal(err)
	}
	adv := c.faults.adversary(c.seed)
	if decorateSteppers {
		st = newStepSet(st, 0).make
	}
	if decorateAdversary {
		adv = timeAdversary(adv, &advAcc{})
	}
	res, err := core.RunSteppers(c.n, c.t, st, c.runOptions(adv))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// minAllocs is the fewest allocations one call of f makes over several
// tries: a run that finds the engine pool emptied (by a GC cycle, or at
// random under -race) allocates a fresh engine on top of its own work.
func minAllocs(f func()) float64 {
	best := testing.AllocsPerRun(1, f)
	for i := 0; i < 9; i++ {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

func TestDecoratorsAreTransparentOnTheEngine(t *testing.T) {
	for _, c := range transparencyCases(t) {
		for _, d := range []struct {
			name           string
			steppers, advs bool
			extraAllocs    float64 // decorator bookkeeping: wrappers, accumulators, closures
		}{
			{"stepper", true, false, float64(c.t) + 4},
			{"adversary", false, true, 4},
			{"both", true, true, float64(c.t) + 8},
		} {
			if got := engineRun(t, c, d.steppers, d.advs); !reflect.DeepEqual(got, c.ref) {
				t.Errorf("%s with the %s decorator:\n got %+v\nwant %+v", c.name, d.name, got, c.ref)
			}
			plain := minAllocs(func() { engineRun(t, c, false, false) })
			decorated := minAllocs(func() { engineRun(t, c, d.steppers, d.advs) })
			if decorated < plain || decorated > plain+d.extraAllocs {
				t.Errorf("%s with the %s decorator: %v allocs against %v plain, want at most %v more",
					c.name, d.name, decorated, plain, d.extraAllocs)
			}
		}
	}
}

func TestDecoratorsAreTransparentOnTheLivePlane(t *testing.T) {
	for _, c := range transparencyCases(t) {
		st, err := c.steppers()
		if err != nil {
			t.Fatal(err)
		}
		set := newStepSet(st, c.t)
		acc := &advAcc{}
		tc := newTimedChan()
		res, err := live.Run(liveConfig(c, timeAdversary(c.faults.adversary(c.seed), acc), tc), set.make)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, c.ref) {
			t.Errorf("%s decorated on the live plane:\n got %+v\nwant %+v", c.name, res, c.ref)
		}
		if steps := set.total().step.calls; steps != res.Events {
			t.Errorf("%s: stepper decorator saw %d steps, run had %d events", c.name, steps, res.Events)
		}
		if acc.onAction.calls == 0 || tc.turnaround.calls == 0 {
			t.Errorf("%s: decorators saw nothing: %+v, %+v", c.name, acc, tc.turnaround.callAcc)
		}
	}
}

func TestStepperDecoratorForwardsRecoverable(t *testing.T) {
	rec := core.TrivialSteppers(4)(0)
	if _, ok := rec.(sim.Recoverable); !ok {
		t.Fatal("trivial stepper should be recoverable")
	}
	if _, ok := timeStepper(rec, &stepAcc{}).(sim.Recoverable); !ok {
		t.Error("decorator hides Recoverable")
	}
	if _, ok := timeStepper(newNullStepper(nullIdle, 1, 0, 1), &stepAcc{}).(sim.Recoverable); ok {
		t.Error("decorator invents Recoverable")
	}
}

func TestAdversaryDecoratorExposesOnlyWhatItWraps(t *testing.T) {
	for _, c := range []struct {
		name             string
		inner            sim.Adversary
		delivery, restar bool
	}{
		{"none", adversary.None(), false, false},
		{"cascade", adversary.NewCascade(4, 3), false, false},
		{"loss", adversary.NewLoss(0.1, 4, 1), true, false},
		{"schedule", adversary.NewSchedule(adversary.Crash{PID: 0, Round: 1, RestartAt: 3}), false, true},
		{"chain", adversary.NewChain(adversary.NewLoss(0.1, 4, 1)), true, true},
	} {
		_, innerD := c.inner.(sim.DeliveryAdversary)
		_, innerR := c.inner.(sim.Restarter)
		if innerD != c.delivery || innerR != c.restar {
			t.Fatalf("%s: test premise wrong: delivery %v restarter %v", c.name, innerD, innerR)
		}
		wrapped := timeAdversary(c.inner, &advAcc{})
		_, gotD := wrapped.(sim.DeliveryAdversary)
		_, gotR := wrapped.(sim.Restarter)
		if gotD != c.delivery || gotR != c.restar {
			t.Errorf("%s: decorated adversary has delivery %v restarter %v, want %v %v",
				c.name, gotD, gotR, c.delivery, c.restar)
		}
	}
}

func TestTransportDecoratorsKeepThePlaneMode(t *testing.T) {
	var chanDec live.Transport = newTimedChan()
	if _, ok := chanDec.(live.WorkerHoster); ok {
		t.Error("the chan decorator implements WorkerHoster: the plane would go remote")
	}
	var wireDec live.Transport = newTimedWire(nil)
	if _, ok := wireDec.(live.WorkerHoster); !ok {
		t.Error("the wire decorator hides WorkerHoster: the plane would host local workers")
	}
}
