package sim

// Unit tests for the extended fault alphabet: send omission (Verdict.Omit),
// transient message loss (DeliveryAdversary), crash recovery
// (Verdict.RestartAt / Restarter over Recoverable steppers) and rate
// degradation (Verdict.Slow, the Slowed wrapper).

import (
	"testing"
)

// recStepper is a Recoverable test process: one work unit per round until
// limit, then halt. The whole state is value-typed, so a shallow copy is a
// complete checkpoint — the same shape the protocol A/B machines use.
type recStepper struct {
	limit int
	done  int
}

func (s *recStepper) Step(p *Proc) Yield {
	if s.done >= s.limit {
		return Yield{Kind: YieldHalt}
	}
	s.done++
	return Yield{Kind: YieldAction, Action: Action{WorkUnit: s.done}}
}

func (s *recStepper) Snapshot() any    { cp := *s; return &cp }
func (s *recStepper) Restore(snap any) { *s = *snap.(*recStepper) }

// restartSched extends the round-crash schedule with a restart schedule.
type restartSched struct {
	scheduleAdv
	restarts map[int64][]int
}

func (s restartSched) ScheduledRestarts(r int64) []int { return s.restarts[r] }

func (s restartSched) NextScheduledRestart(after int64) int64 {
	next := int64(-1)
	for r := range s.restarts {
		if r > after && (next < 0 || r < next) {
			next = r
		}
	}
	return next
}

func TestRestartFromActionCrash(t *testing.T) {
	// Crash at the 2nd action with the work kept; the checkpoint is the
	// post-action state, so the revived process continues with unit 3.
	adv := &scriptedAdversary{
		pid: 0, atCount: 2,
		verdict: Verdict{Crash: true, KeepWork: true, RestartAt: 5},
	}
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 4, Adversary: adv}, func(int) Stepper {
		return &recStepper{limit: 4}
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", res.Crashes, res.Restarts)
	}
	if res.WorkTotal != 4 || res.WorkDistinct != 4 || !res.Complete() {
		t.Fatalf("work=%d distinct=%d complete=%v, want 4/4/true",
			res.WorkTotal, res.WorkDistinct, res.Complete())
	}
	st := res.PerProc[0]
	if st.Status != StatusTerminated || st.Restarts != 1 {
		t.Fatalf("proc 0 = %+v, want terminated with 1 restart", st)
	}
	// Down rounds 2-4, revived at 5: units 3,4 at rounds 5,6, halt at 7.
	if st.RetireRound != 7 {
		t.Fatalf("retire round = %d, want 7", st.RetireRound)
	}
	if res.Survivors != 1 {
		t.Fatalf("survivors = %d, want 1", res.Survivors)
	}
}

func TestRestartAfterLostWorkNeverRedoes(t *testing.T) {
	// KeepWork=false discards the unit of the crashing action, but the
	// checkpoint — taken after the action committed — believes it was
	// performed. The revived process moves on and the unit stays missing:
	// crash recovery composes with work loss exactly as documented.
	adv := &scriptedAdversary{
		pid: 0, atCount: 2,
		verdict: Verdict{Crash: true, KeepWork: false, RestartAt: 5},
	}
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 4, Adversary: adv}, func(int) Stepper {
		return &recStepper{limit: 4}
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WorkTotal != 3 || res.WorkDistinct != 3 || res.Complete() {
		t.Fatalf("work=%d distinct=%d complete=%v, want 3/3/false",
			res.WorkTotal, res.WorkDistinct, res.Complete())
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
}

func TestRestartIgnoredForScript(t *testing.T) {
	// A process whose stepper is not Recoverable cannot be checkpointed: a
	// restart request must leave it crashed without hanging the run loop.
	adv := &scriptedAdversary{
		pid: 0, atCount: 1,
		verdict: Verdict{Crash: true, RestartAt: 5},
	}
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 2, Adversary: adv}, func(int) Stepper {
		return steps(opWork(1), opWork(2))
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes != 1 || res.Restarts != 0 {
		t.Fatalf("crashes=%d restarts=%d, want 1/0", res.Crashes, res.Restarts)
	}
	if res.PerProc[0].Status != StatusCrashed {
		t.Fatalf("status = %v, want crashed", res.PerProc[0].Status)
	}
}

func TestScheduledRoundRestart(t *testing.T) {
	// Round-triggered crash at 2, restart scheduled by the Restarter at 6.
	// The checkpoint is taken inside crash() because the restart schedule is
	// opaque to the engine.
	adv := restartSched{
		scheduleAdv: scheduleAdv{at: map[int64][]int{2: {0}}},
		restarts:    map[int64][]int{6: {0}},
	}
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 3, Adversary: adv}, func(int) Stepper {
		return &recStepper{limit: 3}
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", res.Crashes, res.Restarts)
	}
	if res.WorkTotal != 3 || !res.Complete() {
		t.Fatalf("work=%d complete=%v, want 3/true", res.WorkTotal, res.Complete())
	}
	// Units 1,2 at rounds 0,1; down 2-5; unit 3 at 6; halt at 7.
	if res.PerProc[0].RetireRound != 7 {
		t.Fatalf("retire round = %d, want 7", res.PerProc[0].RetireRound)
	}
}

func TestRestartThenRecrash(t *testing.T) {
	// Crash at round 1, revive at 3, crash again at 4 with no further
	// restart: the first checkpoint was consumed, the second crash takes
	// none (no restart is left to use it) and the process ends down.
	adv := restartSched{
		scheduleAdv: scheduleAdv{at: map[int64][]int{1: {0}, 4: {0}}},
		restarts:    map[int64][]int{3: {0}},
	}
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 5, Adversary: adv}, func(int) Stepper {
		return &recStepper{limit: 5}
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes != 2 || res.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 2/1", res.Crashes, res.Restarts)
	}
	// Unit 1 at round 0; down 1-2; unit 2 at 3; down for good at 4.
	if res.WorkTotal != 2 || res.Complete() {
		t.Fatalf("work=%d complete=%v, want 2/false", res.WorkTotal, res.Complete())
	}
	if res.PerProc[0].Status != StatusCrashed || res.PerProc[0].RetireRound != 4 {
		t.Fatalf("proc 0 = %+v, want crashed at 4", res.PerProc[0])
	}
}

// countingRec is a recStepper that counts the checkpoints taken of it.
type countingRec struct {
	recStepper
	snaps *int
}

func (s *countingRec) Snapshot() any {
	*s.snaps++
	return s.recStepper.Snapshot()
}

func TestCheckpointOnlyWhileRestartPending(t *testing.T) {
	// Under a Restarter, a crash is checkpointed only while a restart is
	// still scheduled after it. Process 0 crashes at 1 with a restart due at
	// 3, so that crash is checkpointed and revived; the crashes of 0 and 1 at
	// round 4 come after the last scheduled restart and take no checkpoint.
	snaps := 0
	adv := restartSched{
		scheduleAdv: scheduleAdv{at: map[int64][]int{1: {0}, 4: {0, 1}}},
		restarts:    map[int64][]int{3: {0}},
	}
	res, err := NewStepper(Config{NumProcs: 2, NumUnits: 6, Adversary: adv}, func(int) Stepper {
		return &countingRec{recStepper: recStepper{limit: 6}, snaps: &snaps}
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes != 3 || res.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 3/1", res.Crashes, res.Restarts)
	}
	if snaps != 1 {
		t.Fatalf("%d checkpoints taken, want 1 (only the crash a restart follows)", snaps)
	}
	for pid, st := range res.PerProc {
		if st.Status != StatusCrashed || st.RetireRound != 4 {
			t.Fatalf("proc %d = %+v, want crashed at 4", pid, st)
		}
	}
	// Each does unit 1 at round 0; 1 goes on with units 2-4 at rounds 1-3,
	// and 0, down for rounds 1-2, does its unit 2 at round 3.
	if res.WorkTotal != 6 || res.PerProc[0].Work != 2 || res.PerProc[1].Work != 4 {
		t.Fatalf("work=%d (per proc %d, %d), want 6 (2, 4)",
			res.WorkTotal, res.PerProc[0].Work, res.PerProc[1].Work)
	}
}

func TestRestartBoundsFastForward(t *testing.T) {
	// With every live process asleep far in the future, the engine
	// fast-forwards — but never past a pending restart round.
	adv := &scriptedAdversary{
		pid: 0, atCount: 1,
		verdict: Verdict{Crash: true, KeepWork: true, RestartAt: 40},
	}
	res, err := NewStepper(Config{NumProcs: 2, NumUnits: 2, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return &recStepper{limit: 2}
		}
		slept := false
		return funcStepper(func(p *Proc) Yield {
			if !slept {
				slept = true
				return Yield{Kind: YieldSleep, Until: 100}
			}
			return Yield{Kind: YieldHalt}
		})
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Restarts != 1 || !res.Complete() {
		t.Fatalf("restarts=%d complete=%v, want 1/true", res.Restarts, res.Complete())
	}
	// Revived at 40, unit 2 at 40, halt at 41.
	if res.PerProc[0].RetireRound != 41 {
		t.Fatalf("proc 0 retired at %d, want 41", res.PerProc[0].RetireRound)
	}
	if res.Rounds != 100 {
		t.Fatalf("rounds = %d, want 100", res.Rounds)
	}
	if res.Events > 12 {
		t.Fatalf("events = %d, expected fast-forward over the down stretch", res.Events)
	}
}

func TestOmitSuppressesUnselectedSends(t *testing.T) {
	// Send omission: the Deliver mask filters the virtual send list exactly
	// like a crash verdict, but the process survives with its work.
	for _, tc := range []struct {
		name     string
		deliver  []bool
		messages int64
		omitted  int64
		want     map[int]bool
	}{
		{"prefix-1", []bool{true}, 1, 2, map[int]bool{1: true}},
		{"nothing", nil, 0, 3, map[int]bool{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := &scriptedAdversary{
				pid: 0, atCount: 1,
				verdict: Verdict{Omit: true, Deliver: tc.deliver},
			}
			received := make(map[int]bool)
			res := run(t, Config{NumProcs: 4, NumUnits: 1, Adversary: adv}, func(id int) Stepper {
				if id == 0 {
					return steps(
						opSend(
							Send{To: 1, Payload: "x"},
							Send{To: 2, Payload: "x"},
							Send{To: 3, Payload: "x"},
						),
						opWork(1), // the omission must not have killed us
					)
				}
				return steps(opWait(10, func(p *Proc, msgs []Message) {
					if len(msgs) > 0 {
						received[p.ID()] = true
					}
				}))
			})
			for pid := 1; pid <= 3; pid++ {
				if received[pid] != tc.want[pid] {
					t.Fatalf("received = %v, want %v", received, tc.want)
				}
			}
			if res.Messages != tc.messages || res.Omitted != tc.omitted {
				t.Fatalf("messages=%d omitted=%d, want %d/%d",
					res.Messages, res.Omitted, tc.messages, tc.omitted)
			}
			if res.Crashes != 0 || res.Survivors != 4 || res.WorkTotal != 1 {
				t.Fatalf("crashes=%d survivors=%d work=%d, want 0/4/1",
					res.Crashes, res.Survivors, res.WorkTotal)
			}
		})
	}
}

func TestDeliveryDropLosesMessageInTransit(t *testing.T) {
	// The dropper fires at delivery time: the sender has already paid for
	// the message (it counts in Messages) but the recipient never sees it.
	adv := &dropFirstTo{to: 1}
	var got []string
	res := run(t, Config{NumProcs: 2, NumUnits: 0, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: "a"}), opSend(Send{To: 1, Payload: "b"}))
		}
		return funcStepper(func(p *Proc) Yield {
			for _, m := range p.Drain() {
				got = append(got, m.Payload.(string))
			}
			if len(got) == 0 && p.Now() < 10 {
				return Yield{Kind: YieldSleep, Until: 10}
			}
			return Yield{Kind: YieldHalt}
		})
	})
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("received %v, want [b]", got)
	}
	if res.Messages != 2 || res.Dropped != 1 {
		t.Fatalf("messages=%d dropped=%d, want 2/1", res.Messages, res.Dropped)
	}
}

// dropFirstTo drops the first delivery bound for a fixed recipient.
type dropFirstTo struct {
	NopAdversary
	to      int
	dropped bool
}

func (d *dropFirstTo) OnDeliver(_ int64, m Message) bool {
	if m.To == d.to && !d.dropped {
		d.dropped = true
		return false
	}
	return true
}

// verdictSeq returns a fixed verdict per committed-action ordinal of one
// process.
type verdictSeq struct {
	NopAdversary
	pid      int
	verdicts map[int]Verdict
	seen     int
}

func (a *verdictSeq) OnAction(_ int64, pid int, _ Action) Verdict {
	if pid != a.pid {
		return Survive()
	}
	a.seen++
	return a.verdicts[a.seen]
}

func TestSlowdownQuartersRate(t *testing.T) {
	// Factor 3 from the first action: each committed action is followed by
	// 2 stalled rounds, so actions land at rounds 0, 3, 6.
	adv := &verdictSeq{pid: 0, verdicts: map[int]Verdict{1: {Slow: 3}}}
	var acted []int64
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 3, Adversary: adv}, func(int) Stepper {
		return funcStepper(func(p *Proc) Yield {
			if len(acted) == 3 {
				return Yield{Kind: YieldHalt}
			}
			acted = append(acted, p.Now())
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: len(acted)}}
		})
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(acted) != 3 || acted[0] != 0 || acted[1] != 3 || acted[2] != 6 {
		t.Fatalf("actions at %v, want [0 3 6]", acted)
	}
	if res.PerProc[0].RetireRound != 9 {
		t.Fatalf("retire round = %d, want 9 (stall after the last action)", res.PerProc[0].RetireRound)
	}
	if !res.Complete() {
		t.Fatal("slowdown must not lose work")
	}
}

func TestSlowdownRestoredByFactorOne(t *testing.T) {
	// Slow persists until another verdict changes it; factor 1 restores
	// full speed.
	adv := &verdictSeq{pid: 0, verdicts: map[int]Verdict{1: {Slow: 3}, 2: {Slow: 1}}}
	var acted []int64
	_, err := NewStepper(Config{NumProcs: 1, NumUnits: 3, Adversary: adv}, func(int) Stepper {
		return funcStepper(func(p *Proc) Yield {
			if len(acted) == 3 {
				return Yield{Kind: YieldHalt}
			}
			acted = append(acted, p.Now())
			return Yield{Kind: YieldAction, Action: Action{WorkUnit: len(acted)}}
		})
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(acted) != 3 || acted[0] != 0 || acted[1] != 3 || acted[2] != 4 {
		t.Fatalf("actions at %v, want [0 3 4]", acted)
	}
}

func TestStalledProcKeepsMailUntilStallEnds(t *testing.T) {
	// A stall is a slow processor, not a sleep: mail delivered mid-stall is
	// retained but must not cut the stall short.
	adv := &verdictSeq{pid: 0, verdicts: map[int]Verdict{1: {Slow: 4}}}
	gotAt := int64(-1)
	_, err := NewStepper(Config{NumProcs: 2, NumUnits: 1, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			started := false
			return funcStepper(func(p *Proc) Yield {
				if !started {
					started = true
					return Yield{Kind: YieldAction, Action: Action{WorkUnit: 1}}
				}
				if msgs := p.Drain(); len(msgs) > 0 {
					gotAt = p.Now()
				}
				return Yield{Kind: YieldHalt}
			})
		}
		sent := false
		return funcStepper(func(p *Proc) Yield {
			if !sent {
				sent = true
				// Sent at round 0, delivered at round 1 — mid-stall.
				return Yield{Kind: YieldAction, Action: Action{Sends: []Send{{To: 0, Payload: "hi"}}}}
			}
			return Yield{Kind: YieldHalt}
		})
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotAt != 4 {
		t.Fatalf("stalled proc read mail at round %d, want 4 (stall end)", gotAt)
	}
}

func TestSlowedWrapperPadsRounds(t *testing.T) {
	// Slowed(st, 3) interleaves 2 idle actions after each productive one:
	// units at rounds 0 and 3, halt at 6.
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 2}, func(int) Stepper {
		return Slowed(&recStepper{limit: 2}, 3)
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WorkTotal != 2 || !res.Complete() {
		t.Fatalf("work=%d complete=%v, want 2/true", res.WorkTotal, res.Complete())
	}
	if res.PerProc[0].RetireRound != 6 {
		t.Fatalf("retire round = %d, want 6", res.PerProc[0].RetireRound)
	}
}

func TestSlowedWrapperRecoverable(t *testing.T) {
	// The wrapper forwards Recoverable and checkpoints its pad counter, so
	// a restart resumes mid-degradation-cycle.
	adv := &scriptedAdversary{
		pid: 0, atCount: 1,
		verdict: Verdict{Crash: true, KeepWork: true, RestartAt: 4},
	}
	res, err := NewStepper(Config{NumProcs: 1, NumUnits: 2, Adversary: adv}, func(int) Stepper {
		return Slowed(&recStepper{limit: 2}, 3)
	}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Restarts != 1 || res.WorkTotal != 2 || !res.Complete() {
		t.Fatalf("restarts=%d work=%d complete=%v, want 1/2/true",
			res.Restarts, res.WorkTotal, res.Complete())
	}
	// Unit 1 at round 0 (crash; pad 2 checkpointed), revived at 4: pads at
	// 4,5, unit 2 at 6, pads at 7,8, halt at 9.
	if res.PerProc[0].RetireRound != 9 {
		t.Fatalf("retire round = %d, want 9", res.PerProc[0].RetireRound)
	}
}
