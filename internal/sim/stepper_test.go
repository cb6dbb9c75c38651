package sim

import (
	"errors"
	"strings"
	"testing"
)

// funcStepper adapts a plain function for test steppers.
type funcStepper func(p *Proc) Yield

func (f funcStepper) Step(p *Proc) Yield { return f(p) }

// scheduleAdv crashes fixed PIDs at fixed rounds (minimal in-package
// adversary; the real ones live in internal/adversary).
type scheduleAdv struct {
	NopAdversary
	at map[int64][]int
}

func (s scheduleAdv) ScheduledCrashes(r int64) []int { return s.at[r] }

func (s scheduleAdv) NextScheduledCrash(after int64) int64 {
	next := int64(-1)
	for r := range s.at {
		if r > after && (next < 0 || r < next) {
			next = r
		}
	}
	return next
}

// seq is the toy process of the sim tests: it runs its ops in order and
// halts after the last. An act op commits its action; a wait op sleeps until
// its deadline or the next mail — at once, if mail is waiting or the
// deadline has passed — and hands what it drains to its callback on the Step
// that wakes it; a do op runs in place.
type seq struct {
	ops   []op
	i     int
	slept bool // ops[i] is a wait that has yielded its sleep
}

type op struct {
	act  func(p *Proc) Action
	wait func(p *Proc) int64 // the deadline, read when the wait begins
	then func(p *Proc, msgs []Message)
}

func (s *seq) Step(p *Proc) Yield {
	for ; s.i < len(s.ops); s.i++ {
		o := s.ops[s.i]
		switch {
		case o.act != nil:
			s.i++
			return Yield{Kind: YieldAction, Action: o.act(p)}
		case o.wait != nil:
			if !s.slept {
				if until := o.wait(p); !p.HasMail() && p.Now() < until {
					s.slept = true
					return Yield{Kind: YieldSleep, Until: until}
				}
			}
			s.slept = false
			msgs := p.Drain()
			if o.then != nil {
				o.then(p, msgs)
			}
		default:
			o.then(p, nil)
		}
	}
	return Yield{Kind: YieldHalt}
}

// steps builds a seq process.
func steps(ops ...op) Stepper { return &seq{ops: ops} }

func opAct(a Action) op       { return op{act: func(*Proc) Action { return a }} }
func opWork(u int) op         { return opAct(Action{WorkUnit: u}) }
func opSend(sends ...Send) op { return opAct(Action{Sends: sends}) }
func opIdle() op              { return opAct(Action{}) }
func opDo(f func(p *Proc)) op { return op{then: func(p *Proc, _ []Message) { f(p) }} }

// opBroadcast sends payload to every PID in to but the sender.
func opBroadcast(to []int, payload any) op {
	return op{act: func(p *Proc) Action { return Action{Broadcast: p.BroadcastTo(to, payload)} }}
}

func opWait(until int64, then func(p *Proc, msgs []Message)) op {
	return op{wait: func(*Proc) int64 { return until }, then: then}
}

// TestStepperPanicSurfacesAsError: a panic inside Step, several steps in,
// must fail the run, not crash the engine's goroutine or hang.
func TestStepperPanicSurfacesAsError(t *testing.T) {
	steps := 0
	_, err := NewStepper(Config{NumProcs: 2, NumUnits: 2}, func(id int) Stepper {
		if id == 1 {
			return funcStepper(func(p *Proc) Yield {
				steps++
				if steps == 3 {
					panic("boom at step 3")
				}
				return Yield{Kind: YieldAction, Action: Action{WorkUnit: 1}}
			})
		}
		return funcStepper(func(p *Proc) Yield {
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: 2}}
		})
	}).Run()
	if err == nil || !strings.Contains(err.Error(), "proc 1 panicked") ||
		!strings.Contains(err.Error(), "boom at step 3") {
		t.Fatalf("err = %v, want proc 1 panic", err)
	}
}

// TestStepperCrashMidSleep schedules a crash for a stepper that is asleep;
// the crash is a state flip (no goroutine to kill) and the run completes.
func TestStepperCrashMidSleep(t *testing.T) {
	adv := scheduleAdv{at: map[int64][]int{5: {1}}}
	res, err := NewStepper(Config{NumProcs: 2, NumUnits: 1, Adversary: adv}, func(id int) Stepper {
		if id == 1 {
			return funcStepper(func(p *Proc) Yield {
				return Yield{Kind: YieldSleep, Until: 100} // never wakes: crashed at 5
			})
		}
		done := false
		return funcStepper(func(p *Proc) Yield {
			if done {
				return Yield{Kind: YieldHalt}
			}
			done = true
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: 1}}
		})
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes != 1 || res.PerProc[1].Status != StatusCrashed {
		t.Fatalf("sleeping stepper not crashed: %+v", res)
	}
	if res.PerProc[1].RetireRound != 5 {
		t.Fatalf("crash round = %d, want 5", res.PerProc[1].RetireRound)
	}
	if res.Survivors != 1 || !res.Complete() {
		t.Fatalf("survivor result wrong: %+v", res)
	}
}

// TestStepperKillAllAfterRoundLimit aborts a run of immortal steppers via
// MaxRound; killAll must retire them as state flips and the error must be
// ErrRoundLimit.
func TestStepperKillAllAfterRoundLimit(t *testing.T) {
	res, err := NewStepper(Config{NumProcs: 4, NumUnits: 0, MaxRound: 10}, func(id int) Stepper {
		return funcStepper(func(p *Proc) Yield {
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: 1}}
		})
	}).Run()
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	// The abort Result snapshots state at the limit (before the deferred
	// killAll retires the procs), so the processes still read as running —
	// the point is that Run returned at all, with every stepper retired by
	// an O(1) state flip.
	for pid, ps := range res.PerProc {
		if ps.Status != StatusRunning {
			t.Fatalf("proc %d status = %v in abort snapshot", pid, ps.Status)
		}
	}
}

// TestInboxBufferRecycling exercises the double-buffered inbox: payloads
// drained in round r must stay intact while new deliveries land, across
// enough rounds to cycle both buffers repeatedly.
func TestInboxBufferRecycling(t *testing.T) {
	const rounds = 8
	var got []string
	res, err := NewStepper(Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		sent := 0
		if id == 0 { // sender: one tagged message per round
			return funcStepper(func(p *Proc) Yield {
				if sent == rounds {
					return Yield{Kind: YieldHalt}
				}
				sent++
				pay := strings.Repeat("x", sent) // distinguishable payloads
				return Yield{Kind: YieldAction, Action: Action{Sends: []Send{{To: 1, Payload: pay}}}}
			})
		}
		return funcStepper(func(p *Proc) Yield {
			for _, m := range p.Drain() {
				got = append(got, m.Payload.(string))
			}
			if len(got) == rounds {
				return Yield{Kind: YieldHalt}
			}
			return Yield{Kind: YieldSleep, Until: Forever - 1}
		})
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != rounds {
		t.Fatalf("received %d messages, want %d", len(got), rounds)
	}
	for i, s := range got {
		if len(s) != i+1 {
			t.Fatalf("message %d corrupted: %q", i, s)
		}
	}
	if res.Survivors != 2 {
		t.Fatalf("survivors = %d", res.Survivors)
	}
}
