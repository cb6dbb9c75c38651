package sim

import (
	"errors"
	"reflect"
	"runtime"
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

// toy is the reference process used by the substrate tests: sleep until round
// 2·id, perform unit id+1, broadcast a token to everyone, then halt. It is
// implemented once per substrate; all engines must produce identical Results.
func toyScript(id, t int) Script {
	return func(p *Proc) {
		for p.Now() < int64(2*id) {
			p.WaitUntil(int64(2 * id))
		}
		p.StepWork(id + 1)
		to := make([]int, t)
		for i := range to {
			to[i] = i
		}
		p.StepSend(p.Broadcast(to, "tok")...)
	}
}

type toyStepper struct {
	id, t int
	state int
}

func (s *toyStepper) Step(p *Proc) Yield {
	for {
		switch s.state {
		case 0:
			if p.HasMail() {
				p.Drain()
			}
			if p.Now() < int64(2*s.id) {
				return Yield{Kind: YieldSleep, Until: int64(2 * s.id)}
			}
			s.state = 1
		case 1:
			s.state = 2
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: s.id + 1}}
		case 2:
			to := make([]int, s.t)
			for i := range to {
				to[i] = i
			}
			s.state = 3
			return Yield{Kind: YieldAction, Action: Action{Sends: p.Broadcast(to, "tok")}}
		default:
			return Yield{Kind: YieldHalt}
		}
	}
}

func toyConfig(t int, adv Adversary) Config {
	return Config{NumProcs: t, NumUnits: t, Adversary: adv, DetailedMetrics: true}
}

// TestMixedSubstrateDeterminism runs the toy protocol on all-script,
// all-stepper and mixed engines and requires identical Results.
func TestMixedSubstrateDeterminism(t *testing.T) {
	const procs = 9
	mkAdv := func() Adversary {
		return scheduleAdv{at: map[int64][]int{3: {4}, 7: {procs - 1}}}
	}
	runWith := func(pick func(id int) Stepper) Result {
		t.Helper()
		res, err := NewStepper(toyConfig(procs, mkAdv()), pick).Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	allScript := runWith(func(id int) Stepper { return ScriptStepper(toyScript(id, procs)) })
	allStepper := runWith(func(id int) Stepper { return &toyStepper{id: id, t: procs} })
	mixed := runWith(func(id int) Stepper {
		if id%2 == 0 {
			return &toyStepper{id: id, t: procs}
		}
		return ScriptStepper(toyScript(id, procs))
	})
	if !reflect.DeepEqual(allScript, allStepper) {
		t.Fatalf("script vs stepper:\n%+v\n%+v", allScript, allStepper)
	}
	if !reflect.DeepEqual(allScript, mixed) {
		t.Fatalf("script vs mixed:\n%+v\n%+v", allScript, mixed)
	}
	if allScript.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", allScript.Crashes)
	}
}

// TestStepperPanicSurfacesAsError mirrors the script-panic test on the
// direct-call substrate: a panic inside Step must fail the run, not crash
// the engine's goroutine or hang.
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

// TestStepperKillAllMixed aborts a mixed engine: the shim-backed script
// coroutines must be stopped (no leak/hang) alongside the stepper flips.
func TestStepperKillAllMixed(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 4, NumUnits: 0, MaxRound: 8}, func(id int) Stepper {
		if id%2 == 0 {
			return funcStepper(func(p *Proc) Yield {
				return Yield{Kind: YieldAction, Action: Action{WorkUnit: 1}}
			})
		}
		return ScriptStepper(func(p *Proc) {
			for {
				p.StepWork(1)
			}
		})
	}).Run()
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

// TestStepperBlockingCallPanics: blocking Proc methods are script-side only
// and must fail loudly (not deadlock) when called from a stepper.
func TestStepperBlockingCallPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(p *Proc)
	}{
		{"StepWork", func(p *Proc) { p.StepWork(1) }},
		{"StepIdle", func(p *Proc) { p.StepIdle() }},
		{"WaitUntil", func(p *Proc) { p.WaitUntil(Forever - 1) }},
		{"Halt", func(p *Proc) { p.Halt() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewStepper(Config{NumProcs: 1, NumUnits: 1}, func(id int) Stepper {
				return funcStepper(func(p *Proc) Yield {
					c.call(p) // illegal: would block the engine on itself
					return Yield{}
				})
			}).Run()
			if err == nil || !strings.Contains(err.Error(), "return a Yield") {
				t.Fatalf("err = %v, want stepper-misuse panic", err)
			}
		})
	}
}

// TestScriptCoroutinesReleased runs mixed engines whose scripts leave by
// every exit path: a halt, a panic, a MaxRound abort mid-action, a sleep
// cut short by an abort, and a crash before the first step. After each run
// every coroutine must be gone — the goroutine count is back at its
// baseline — and every script that started must have run its deferred
// calls.
func TestScriptCoroutinesReleased(t *testing.T) {
	const procs = 4
	loop := func(p *Proc) {
		for {
			p.StepWork(1)
		}
	}
	cases := []struct {
		name    string
		cfg     Config
		script  Script
		wantErr string
		starts  int // scripts that run at all
	}{
		{"halt", Config{NumUnits: 2}, func(p *Proc) { p.StepWork(2); p.Halt() }, "", 2},
		{"panic", Config{NumUnits: 2}, func(p *Proc) { p.StepWork(2); panic("boom") }, "proc 1 panicked: boom", 2},
		{"round limit", Config{NumUnits: 2, MaxRound: 8}, loop, ErrRoundLimit.Error(), 2},
		{"asleep", Config{NumUnits: 2, MaxRound: 100}, func(p *Proc) { p.WaitUntil(Forever - 1) }, ErrRoundLimit.Error(), 2},
		{"crashed before first step", Config{NumUnits: 2, Adversary: scheduleAdv{at: map[int64][]int{0: {1, 3}}}}, loop, "", 0},
	}
	base := runtime.NumGoroutine()
	for run := 0; run < 50; run++ {
		c := cases[run%len(cases)]
		started, unwound := 0, 0
		cfg := c.cfg
		cfg.NumProcs = procs
		_, err := NewStepper(cfg, func(id int) Stepper {
			if id%2 == 0 {
				done := false
				return funcStepper(func(p *Proc) Yield {
					if done {
						return Yield{Kind: YieldHalt}
					}
					done = true
					return Yield{Kind: YieldAction, Action: Action{WorkUnit: 1}}
				})
			}
			return ScriptStepper(func(p *Proc) {
				started++
				defer func() { unwound++ }()
				c.script(p)
			})
		}).Run()
		if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Fatalf("run %d (%s): err = %v, want %q", run, c.name, err, c.wantErr)
		}
		if started != c.starts || unwound != started {
			t.Fatalf("run %d (%s): %d scripts started, %d unwound; want %d of each",
				run, c.name, started, unwound, c.starts)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("run %d (%s): %d goroutines after the run, %d before", run, c.name, n, base)
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
