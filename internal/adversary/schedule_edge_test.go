package adversary

import (
	"testing"

	"repro/internal/sim"
)

// Engine-level edge cases for Schedule: the crash plan corners that unit
// tests on OnAction alone cannot reach — round-0 crashes before any action,
// duplicate PIDs in one round, Deliver masks shorter and longer than the
// send list, and action triggers on processes that never act.

// worker performs units 1..n, broadcasting a marker to every other process
// after each unit.
type worker struct {
	n, u int
	to   []int
	cast bool // unit u is owed its marker
}

func newWorker(n, t int) *worker {
	w := &worker{n: n}
	for i := 0; i < t; i++ {
		w.to = append(w.to, i)
	}
	return w
}

func (w *worker) Step(p *sim.Proc) sim.Yield {
	if w.cast {
		w.cast = false
		return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Broadcast: p.BroadcastTo(w.to, w.u)}}
	}
	if w.u == w.n {
		return sim.Yield{Kind: sim.YieldHalt}
	}
	w.u++
	w.cast = true
	return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{WorkUnit: w.u}}
}

// stepFunc adapts a plain function as a sim.Stepper.
type stepFunc func(p *sim.Proc) sim.Yield

func (f stepFunc) Step(p *sim.Proc) sim.Yield { return f(p) }

// listener drains mail until the deadline, then halts.
func listener(deadline int64) sim.Stepper {
	return stepFunc(func(p *sim.Proc) sim.Yield {
		p.Drain()
		if p.Now() < deadline {
			return sim.Yield{Kind: sim.YieldSleep, Until: deadline}
		}
		return sim.Yield{Kind: sim.YieldHalt}
	})
}

func runSchedule(t *testing.T, cfg sim.Config, steppers func(int) sim.Stepper) sim.Result {
	t.Helper()
	res, err := sim.NewStepper(cfg, steppers).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScheduleCrashAtRoundZero kills a process at the start of round 0: it
// must retire having committed no actions at all.
func TestScheduleCrashAtRoundZero(t *testing.T) {
	res := runSchedule(t, sim.Config{
		NumProcs: 2, NumUnits: 3,
		Adversary: NewSchedule(Crash{PID: 0, Round: 0}),
	}, func(id int) sim.Stepper {
		if id == 0 {
			return newWorker(3, 2)
		}
		return listener(10)
	})
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	p0 := res.PerProc[0]
	if p0.Status != sim.StatusCrashed || p0.RetireRound != 0 {
		t.Fatalf("proc 0: %+v, want crashed at round 0", p0)
	}
	if p0.Actions != 0 || p0.Work != 0 || p0.Sent != 0 {
		t.Fatalf("proc 0 acted before the round-0 crash: %+v", p0)
	}
}

// TestScheduleDuplicatePIDOneRound plans the same victim twice in the same
// round: the engine must count a single crash (the second entry sees a
// non-running process).
func TestScheduleDuplicatePIDOneRound(t *testing.T) {
	s := NewSchedule(Crash{PID: 1, Round: 2}, Crash{PID: 1, Round: 2})
	if got := s.ScheduledCrashes(2); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("ScheduledCrashes(2) = %v (duplicates are the adversary's problem to expose)", got)
	}
	res := runSchedule(t, sim.Config{
		NumProcs: 2, NumUnits: 4,
		Adversary: NewSchedule(Crash{PID: 1, Round: 2}, Crash{PID: 1, Round: 2}),
	}, func(id int) sim.Stepper {
		return newWorker(4, 2)
	})
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1 despite the duplicate plan", res.Crashes)
	}
	if res.PerProc[1].Status != sim.StatusCrashed {
		t.Fatalf("proc 1: %+v", res.PerProc[1])
	}
}

// TestScheduleDeliverMaskShorter crashes mid-broadcast with a mask shorter
// than the send list: unmasked sends are suppressed.
func TestScheduleDeliverMaskShorter(t *testing.T) {
	res := runSchedule(t, sim.Config{
		NumProcs: 4, NumUnits: 1,
		Adversary: NewSchedule(Crash{
			PID: 0, AtAction: 2, KeepWork: true, Deliver: []bool{true},
		}),
	}, func(id int) sim.Stepper {
		if id == 0 {
			return newWorker(1, 4) // action 2 is the 3-recipient broadcast
		}
		return listener(5)
	})
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	// Only the first of the three sends survives the one-true mask.
	if res.Messages != 1 || res.PerProc[0].Sent != 1 {
		t.Fatalf("messages = %d (proc 0 sent %d), want 1 delivered", res.Messages, res.PerProc[0].Sent)
	}
	if res.WorkTotal != 1 {
		t.Fatalf("work = %d, want the kept unit", res.WorkTotal)
	}
}

// TestScheduleDeliverMaskLonger uses a mask longer than the send list: the
// extra entries are ignored, every real send is delivered, nothing panics,
// and KeepWork = false discards the work unit of the crashed action.
func TestScheduleDeliverMaskLonger(t *testing.T) {
	res := runSchedule(t, sim.Config{
		NumProcs: 3, NumUnits: 1,
		Adversary: NewSchedule(Crash{
			PID: 0, AtAction: 1, KeepWork: false,
			Deliver: []bool{true, true, true, true, true, true},
		}),
	}, func(id int) sim.Stepper {
		if id == 0 {
			done := false
			return stepFunc(func(p *sim.Proc) sim.Yield { // one combined work+broadcast action
				if done {
					return sim.Yield{Kind: sim.YieldHalt}
				}
				done = true
				return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{
					WorkUnit: 1, Sends: []sim.Send{{To: 1, Payload: 1}, {To: 2, Payload: 1}},
				}}
			})
		}
		return listener(5)
	})
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want both real sends delivered", res.Messages)
	}
	if res.WorkTotal != 0 {
		t.Fatalf("work = %d, want 0 (KeepWork = false on the crashed action)", res.WorkTotal)
	}
}

// TestScheduleActionCrashOnSilentPID plans an action-triggered crash for a
// process that never commits an action: the crash never fires and the run
// completes untouched.
func TestScheduleActionCrashOnSilentPID(t *testing.T) {
	res := runSchedule(t, sim.Config{
		NumProcs: 2, NumUnits: 2,
		Adversary: NewSchedule(Crash{PID: 1, AtAction: 1, KeepWork: true}),
	}, func(id int) sim.Stepper {
		if id == 0 {
			return newWorker(2, 1) // broadcasts reach nobody: t=1 list
		}
		return stepFunc(func(*sim.Proc) sim.Yield { return sim.Yield{Kind: sim.YieldHalt} }) // zero actions
	})
	if res.Crashes != 0 {
		t.Fatalf("crashes = %d, want 0 (victim never acts)", res.Crashes)
	}
	if res.PerProc[1].Status != sim.StatusTerminated || res.PerProc[1].Actions != 0 {
		t.Fatalf("proc 1: %+v", res.PerProc[1])
	}
	if !res.Complete() {
		t.Fatal("run incomplete")
	}
}

// TestScheduleActionCrashOutOfRangePID plans a crash for a PID outside the
// process set: it must be inert.
func TestScheduleActionCrashOutOfRangePID(t *testing.T) {
	res := runSchedule(t, sim.Config{
		NumProcs: 2, NumUnits: 2,
		Adversary: NewSchedule(Crash{PID: 9, AtAction: 1}, Crash{PID: 7, Round: 1}),
	}, func(id int) sim.Stepper {
		return newWorker(2, 2)
	})
	if res.Crashes != 0 || !res.Complete() {
		t.Fatalf("crashes = %d complete = %v, want inert plan", res.Crashes, res.Complete())
	}
}
