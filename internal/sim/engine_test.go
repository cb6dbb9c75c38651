package sim

import (
	"errors"
	"strings"
	"testing"
)

// run is a test helper that builds and runs an engine.
func run(t *testing.T, cfg Config, steppers func(int) Stepper) Result {
	t.Helper()
	res, err := NewStepper(cfg, steppers).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleProcessWorks(t *testing.T) {
	res := run(t, Config{NumProcs: 1, NumUnits: 3}, func(int) Stepper {
		return steps(opWork(1), opWork(2), opWork(3))
	})
	if res.WorkTotal != 3 || res.WorkDistinct != 3 {
		t.Fatalf("work = %d distinct %d, want 3/3", res.WorkTotal, res.WorkDistinct)
	}
	if !res.Complete() {
		t.Fatal("run should be complete")
	}
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1", res.Survivors)
	}
	if res.CompletedRound != 2 {
		t.Fatalf("completed round = %d, want 2 (rounds 0,1,2)", res.CompletedRound)
	}
}

func TestMessageDeliveredNextRound(t *testing.T) {
	gotAt := int64(-1)
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: "hi"}))
		}
		return steps(opWait(100, func(p *Proc, msgs []Message) {
			if len(msgs) == 1 && msgs[0].Payload == "hi" {
				gotAt = p.Now()
			}
		}))
	})
	if gotAt != 1 {
		t.Fatalf("message received at round %d, want 1 (sent at round 0)", gotAt)
	}
}

func TestSleepTimeout(t *testing.T) {
	var woke int64
	res := run(t, Config{NumProcs: 1, NumUnits: 0}, func(int) Stepper {
		return steps(opWait(50, func(p *Proc, msgs []Message) {
			if len(msgs) != 0 {
				t.Errorf("unexpected messages: %v", msgs)
			}
			woke = p.Now()
		}))
	})
	if woke != 50 {
		t.Fatalf("woke at %d, want 50", woke)
	}
	// Fast-forwarding means only a couple of events were simulated.
	if res.Events > 5 {
		t.Fatalf("events = %d, expected fast-forward to skip the wait", res.Events)
	}
	if res.Rounds != 50 {
		t.Fatalf("rounds = %d, want 50", res.Rounds)
	}
}

func TestFastForwardHugeDeadline(t *testing.T) {
	const deadline = int64(1) << 50
	res := run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		return steps(opWait(deadline+int64(id), nil))
	})
	if res.Rounds != deadline+1 {
		t.Fatalf("rounds = %d, want %d", res.Rounds, deadline+1)
	}
	if res.Events > 10 {
		t.Fatalf("events = %d, want a handful despite 2^50 rounds", res.Events)
	}
}

func TestMessageWakesSleeper(t *testing.T) {
	var woke int64
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps(opIdle(), opIdle(), opIdle(), opIdle(), opIdle(), opSend(Send{To: 1, Payload: 42}))
		}
		return steps(opWait(1<<40, func(p *Proc, msgs []Message) {
			if len(msgs) != 1 {
				t.Errorf("got %d messages, want 1", len(msgs))
			}
			woke = p.Now()
		}))
	})
	if woke != 6 {
		t.Fatalf("sleeper woke at %d, want 6 (send at round 5)", woke)
	}
}

// scriptedAdversary crashes a given pid at its k-th action with a chosen
// verdict.
type scriptedAdversary struct {
	NopAdversary
	pid     int
	atCount int
	verdict Verdict
	seen    int
}

func (a *scriptedAdversary) OnAction(_ int64, pid int, _ Action) Verdict {
	if pid != a.pid {
		return Survive()
	}
	a.seen++
	if a.seen == a.atCount {
		return a.verdict
	}
	return Survive()
}

func TestCrashMidBroadcastDeliversSubset(t *testing.T) {
	adv := &scriptedAdversary{
		pid: 0, atCount: 1,
		verdict: Verdict{Crash: true, Deliver: []bool{true, false, true}},
	}
	received := make(map[int]bool)
	res := run(t, Config{NumProcs: 4, NumUnits: 0, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(
				Send{To: 1, Payload: "x"},
				Send{To: 2, Payload: "x"},
				Send{To: 3, Payload: "x"},
			))
		}
		return steps(opWait(10, func(p *Proc, msgs []Message) {
			if len(msgs) > 0 {
				received[p.ID()] = true
			}
		}))
	})
	if !received[1] || received[2] || !received[3] {
		t.Fatalf("received = %v, want {1,3}", received)
	}
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (only delivered subset counts)", res.Messages)
	}
	if res.Crashes != 1 || res.Survivors != 3 {
		t.Fatalf("crashes=%d survivors=%d, want 1/3", res.Crashes, res.Survivors)
	}
}

func TestCrashKeepWorkSemantics(t *testing.T) {
	for _, keep := range []bool{true, false} {
		adv := &scriptedAdversary{
			pid: 0, atCount: 1,
			verdict: Verdict{Crash: true, KeepWork: keep},
		}
		res := run(t, Config{NumProcs: 1, NumUnits: 1, Adversary: adv}, func(int) Stepper {
			return steps(opWork(1))
		})
		want := int64(0)
		if keep {
			want = 1
		}
		if res.WorkTotal != want {
			t.Fatalf("keep=%v: work = %d, want %d", keep, res.WorkTotal, want)
		}
	}
}

// schedAdversary implements scheduled crashes at fixed rounds.
type schedAdversary struct {
	NopAdversary
	at map[int64][]int
}

func (a *schedAdversary) ScheduledCrashes(r int64) []int { return a.at[r] }
func (a *schedAdversary) NextScheduledCrash(after int64) int64 {
	next := int64(-1)
	for r := range a.at {
		if r > after && (next < 0 || r < next) {
			next = r
		}
	}
	return next
}

func TestScheduledCrashOfSleeper(t *testing.T) {
	adv := &schedAdversary{at: map[int64][]int{7: {1}}}
	res := run(t, Config{NumProcs: 2, NumUnits: 0, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return steps(opWait(20, nil))
		}
		return steps(opWait(1<<40, nil)) // would sleep forever; the crash must interrupt
	})
	if res.PerProc[1].Status != StatusCrashed {
		t.Fatalf("proc 1 status = %v, want crashed", res.PerProc[1].Status)
	}
	if res.PerProc[1].RetireRound != 7 {
		t.Fatalf("proc 1 retired at %d, want 7", res.PerProc[1].RetireRound)
	}
	// Fast-forward must not have skipped over the scheduled crash.
	if res.Rounds != 20 {
		t.Fatalf("rounds = %d, want 20", res.Rounds)
	}
}

func TestMaxActiveInvariant(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 2, NumUnits: 0, MaxActive: 1}, func(id int) Stepper {
		return steps(opDo(func(p *Proc) { p.SetActive(true) }), opIdle(), opIdle())
	}).Run()
	if err == nil || !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("want invariant violation error, got %v", err)
	}
}

func TestRoundLimit(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 1, NumUnits: 0, MaxRound: 10}, func(int) Stepper {
		return funcStepper(func(*Proc) Yield { return Yield{Kind: YieldAction} })
	}).Run()
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
}

// TestDeadlockNamesHorizon: a run whose live processes all sleep until
// Forever fails with ErrDeadlock naming the lowest PID whose deadline
// saturated there.
func TestDeadlockNamesHorizon(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 3, NumUnits: 1}, func(id int) Stepper {
		switch id {
		case 0:
			return steps(opWork(1))
		case 1:
			return steps(opWait(5, nil), opWait(Forever, nil))
		}
		return steps(opWait(Forever, nil))
	}).Run()
	want := "sim: deadlock, all processes asleep forever: proc 1's deadline saturated at round 2305843009213693952 (sim.Forever), the clock's horizon"
	if !errors.Is(err, ErrDeadlock) || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestScriptPanicSurfacesAsError(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 1, NumUnits: 0}, func(int) Stepper {
		return steps(opDo(func(*Proc) { panic("boom") }))
	}).Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestScriptReturnIsHalt(t *testing.T) {
	res := run(t, Config{NumProcs: 1, NumUnits: 0}, func(int) Stepper {
		return steps(opIdle())
	})
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1", res.Survivors)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (Result, error) {
		return NewStepper(Config{NumProcs: 4, NumUnits: 8, DetailedMetrics: true}, func(id int) Stepper {
			if id == 0 {
				var ops []op
				for u := 1; u <= 8; u++ {
					ops = append(ops, opAct(Action{WorkUnit: u, Sends: []Send{{To: 1 + (u % 3), Payload: u}}}))
				}
				return steps(ops...)
			}
			// Wait up to round 100 for mail, again after each batch; halt
			// on a wait that brings none.
			slept := false
			return funcStepper(func(p *Proc) Yield {
				for {
					if !slept && !p.HasMail() && p.Now() < 100 {
						slept = true
						return Yield{Kind: YieldSleep, Until: 100}
					}
					slept = false
					if len(p.Drain()) == 0 {
						return Yield{Kind: YieldHalt}
					}
				}
			})
		}).Run()
	}
	r1, err1 := mk()
	r2, err2 := mk()
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if r1.WorkTotal != r2.WorkTotal || r1.Messages != r2.Messages || r1.Rounds != r2.Rounds ||
		r1.Events != r2.Events {
		t.Fatalf("nondeterministic results: %+v vs %+v", r1, r2)
	}
}

func TestResleepInvalidatesOldWakeTime(t *testing.T) {
	// A sleeper woken early by a message re-sleeps with a *longer* deadline;
	// the stale (shorter) heap entry must not wake it early.
	var woke int64
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: "poke"}))
		}
		return steps(
			opWait(10, nil), // interrupted at round 1 by the poke
			opWait(40, func(p *Proc, _ []Message) { woke = p.Now() }), // stale entry for round 10 must be ignored
		)
	})
	if woke != 40 {
		t.Fatalf("re-sleeper woke at %d, want 40", woke)
	}
}

func TestResleepShorterDeadline(t *testing.T) {
	// The opposite order: woken early, then re-sleeps with a shorter deadline
	// than the original; the new wake time must fire, not the stale one.
	var woke int64
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: "poke"}))
		}
		return steps(opWait(1<<40, nil), opWait(7, func(p *Proc, _ []Message) { woke = p.Now() }))
	})
	if woke != 7 {
		t.Fatalf("re-sleeper woke at %d, want 7", woke)
	}
}

func TestStaggeredWakeOrder(t *testing.T) {
	// Many sleepers with interleaved deadlines: each must wake exactly at its
	// own deadline even as the engine fast-forwards between them.
	const procs = 9
	wokeAt := make([]int64, procs)
	run(t, Config{NumProcs: procs, NumUnits: 0}, func(id int) Stepper {
		// Deadlines deliberately not in PID order: 100, 91, 82, ...
		deadline := int64(100 - 9*id)
		return steps(opWait(deadline, func(p *Proc, _ []Message) { wokeAt[p.ID()] = p.Now() }))
	})
	for id := 0; id < procs; id++ {
		if want := int64(100 - 9*id); wokeAt[id] != want {
			t.Fatalf("proc %d woke at %d, want %d", id, wokeAt[id], want)
		}
	}
}

func TestPendingBufferReuseKeepsPayloads(t *testing.T) {
	// Messages sent every round exercise the recycled pending buffer; each
	// payload must arrive intact exactly one round after its send.
	const rounds = 20
	var got []int
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			var ops []op
			for i := 0; i < rounds; i++ {
				ops = append(ops, opSend(Send{To: 1, Payload: i}))
			}
			return steps(ops...)
		}
		return funcStepper(func(p *Proc) Yield {
			for _, m := range p.Drain() {
				if m.SentAt != p.Now()-1 {
					t.Errorf("payload %v sent at %d, received at %d", m.Payload, m.SentAt, p.Now())
				}
				got = append(got, m.Payload.(int))
			}
			if len(got) < rounds {
				return Yield{Kind: YieldSleep, Until: 1 << 40}
			}
			return Yield{Kind: YieldHalt}
		})
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; payloads corrupted: %v", i, v, got)
		}
	}
}

func TestScheduledCrashOfRunnableProc(t *testing.T) {
	// A non-sleeping (runnable) process crashed at a round boundary must not
	// be resumed in that round.
	adv := &schedAdversary{at: map[int64][]int{3: {0}}}
	var lastActed int64
	res := run(t, Config{NumProcs: 2, NumUnits: 0, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return funcStepper(func(p *Proc) Yield {
				lastActed = p.Now()
				return Yield{Kind: YieldAction}
			})
		}
		return steps(opWait(10, nil))
	})
	if lastActed != 2 {
		t.Fatalf("crashed proc last acted at round %d, want 2", lastActed)
	}
	if res.PerProc[0].Status != StatusCrashed || res.PerProc[0].RetireRound != 3 {
		t.Fatalf("proc 0 = %+v, want crashed at 3", res.PerProc[0])
	}
}

func TestManyProcsWordBoundaries(t *testing.T) {
	// More than 64 processes exercises multi-word run-queue iteration; every
	// process must still act in ascending ID order within a round.
	const procs = 130
	var order []int
	res := run(t, Config{NumProcs: procs, NumUnits: procs}, func(id int) Stepper {
		return steps(opDo(func(p *Proc) { order = append(order, p.ID()) }), opWork(id+1))
	})
	if len(order) != procs {
		t.Fatalf("resumed %d procs, want %d", len(order), procs)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("resume order[%d] = %d, want ascending IDs", i, id)
		}
	}
	if !res.Complete() || res.Survivors != procs {
		t.Fatalf("complete=%v survivors=%d", res.Complete(), res.Survivors)
	}
}

func TestActiveCountSurvivesRetirement(t *testing.T) {
	// A process that halts while active must release the active slot so a
	// successor can claim it without tripping the invariant.
	res := run(t, Config{NumProcs: 2, NumUnits: 0, MaxActive: 1}, func(id int) Stepper {
		activate := opDo(func(p *Proc) { p.SetActive(true) })
		if id == 0 {
			return steps(activate, opIdle())
		}
		return steps(opWait(2, nil), activate, opIdle())
	})
	if res.Survivors != 2 {
		t.Fatalf("survivors = %d, want 2", res.Survivors)
	}
}

func TestPerProcStats(t *testing.T) {
	res := run(t, Config{NumProcs: 2, NumUnits: 2}, func(id int) Stepper {
		return steps(opAct(Action{WorkUnit: id + 1, Sends: []Send{{To: 1 - id, Payload: "m"}}}))
	})
	for pid := 0; pid < 2; pid++ {
		st := res.PerProc[pid]
		if st.Work != 1 || st.Sent != 1 || st.Status != StatusTerminated {
			t.Fatalf("proc %d stats = %+v", pid, st)
		}
	}
}

func TestMessagesByKind(t *testing.T) {
	res := run(t, Config{NumProcs: 2, NumUnits: 0, DetailedMetrics: true}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: "str"}), opSend(Send{To: 1, Payload: 7}))
		}
		return steps(opWait(3, nil), opWait(4, nil))
	})
	if res.MessagesByKind["string"] != 1 || res.MessagesByKind["int"] != 1 {
		t.Fatalf("kinds = %v", res.MessagesByKind)
	}
}

func TestBroadcastHelperSkipsSelf(t *testing.T) {
	res := run(t, Config{NumProcs: 3, NumUnits: 0}, func(id int) Stepper {
		if id != 0 {
			return steps()
		}
		return funcStepper(func(p *Proc) Yield {
			if p.Now() > 0 {
				return Yield{Kind: YieldHalt}
			}
			b := p.BroadcastTo([]int{0, 1, 2}, "x")
			if len(b.To) != 2 {
				t.Errorf("broadcast len = %d, want 2", len(b.To))
			}
			return Yield{Kind: YieldAction, Action: Action{Broadcast: b}}
		})
	})
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Messages)
	}
}

func TestHaltedProcessDropsMail(t *testing.T) {
	// Messages to retired processes disappear; the engine must not leak or
	// mis-deliver them.
	res := run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps()
		}
		return steps(opSend(Send{To: 0, Payload: "late"}))
	})
	// Message was transmitted (counts) but had no effect.
	if res.Messages != 1 {
		t.Fatalf("messages = %d, want 1", res.Messages)
	}
}

func TestEmptyConfigCompletion(t *testing.T) {
	res := run(t, Config{NumProcs: 1, NumUnits: 0}, func(int) Stepper {
		return steps()
	})
	if !res.Complete() {
		t.Fatal("zero-unit run should be trivially complete")
	}
}
