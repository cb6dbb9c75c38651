package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// This file is the one statement of round semantics: deliver, wake, pump,
// one step per runnable process committed in ascending PID order, crash
// mid-send, fast-forward. Every execution plane drives the same RoundCore
// through the same phase methods, so a model constraint (the bandwidth cap)
// or a fault kind (omission, loss, recovery, slowdown) is written here once
// and holds on every plane by construction.
//
// The core never steps a process and never blocks: a driver opens a round,
// steps the runnable processes however it likes (the Engine inline on its
// own stack, internal/live on one goroutine per process behind a barrier),
// hands each yield back in ascending PID order, and closes the round. See
// DESIGN.md §1 "One round core, two drivers".

// Body is what the core needs from whatever holds the process bodies. The
// core keeps the whole book on a process itself; the body is consulted only
// where the process's own state is involved.
type Body interface {
	// Label returns pid's current state label, for trace events.
	Label(pid int) string
	// Checkpoint is called as pid crashes while a restart may still revive
	// it: the body drops the process's undrained mail, checkpoints it and
	// reports whether it could (only Recoverable steppers can). A process
	// that was not checkpointed is retired instead.
	Checkpoint(pid int) bool
	// Restore rewinds pid to the checkpoint Checkpoint took, consuming it;
	// false means the checkpoint is no longer reachable and the process
	// stays crashed.
	Restore(pid int) bool
	// Retire is called when pid leaves the run for good — halt, panic, or a
	// crash without a checkpoint — so whatever backs it can be released.
	Retire(pid int)
}

// mailbox is a double-buffered inbox: take hands out everything delivered so
// far and recycles the buffer handed out before, so steady-state delivery
// allocates nothing. A taken slice is valid until the take after next.
type mailbox struct {
	inbox []Message
	spare []Message
}

func (mb *mailbox) take() []Message {
	msgs := mb.inbox
	mb.inbox = mb.spare[:0]
	mb.spare = msgs
	return msgs
}

func (mb *mailbox) scrub() { scrubPair(&mb.inbox, &mb.spare) }

// procBook is the core's book on one process: everything about it that is
// not the body's own state.
type procBook struct {
	// mailbox stages delivered mail until the process next steps. Engine
	// procs drain it in place; a plane with its own workers takes it at
	// grant time (TakeMail).
	mailbox

	status   Status
	sleeping bool
	// stalled marks a rate-degraded process serving its post-action stall
	// rounds, during which incoming mail must not wake it; slowFactor is the
	// persistent factor (0/1 = full speed).
	stalled    bool
	slowFactor int
	wakeAt     int64
	active     bool // flagged by SetActive
	snapped    bool // a crash checkpoint is held for revival

	// Bandwidth cap (Config.Bandwidth): sendq holds committed-but-
	// untransmitted messages awaiting budget, in commit order; sentInRound
	// meters this round's transmissions, lazily restamped per round via
	// sentRound; deferred totals the sends that ever overflowed the budget.
	sendq       []Message
	sentRound   int64
	sentInRound int
	deferred    int64

	retireRound int64
	workDone    int64
	msgsSent    int64
	actions     int64
	restarts    int64
}

// bcastRec is one committed broadcast awaiting delivery: the single shared
// record behind what recipients see as ordinary Messages. to is referenced
// from the committing action (see Broadcast); the sender cannot step — and
// so cannot reuse its scratch — before the record is delivered.
type bcastRec struct {
	from    int
	sentAt  int64
	payload any
	to      []int
}

// RoundCore is the re-entrant round core. A run is
//
//	Reset
//	for OpenRound() {
//		for each NextRunnable pid, ascending: step it, then
//			Commit | CommitPanic | CrashGranted
//		if !CloseRound() { break }
//	}
//	Finish
//
// and Scrub before the core idles in a pool. The phase methods are plain
// calls on the caller's goroutine; callers serialize them (the Engine is
// single-threaded, the live plane's coordinator token is exclusive). It is
// the Host of the processes it books.
//
// Scheduling state is maintained incrementally rather than recomputed by
// O(t) scans every round: live tracks the running count, runq the set of
// processes runnable this round, and sleepers orders future wake times in a
// min-heap with lazy invalidation. Because every send commits for delivery
// exactly one round later, pending messages live in a single flat buffer
// (recycled between rounds) instead of a round-indexed map.
type RoundCore struct {
	cfg  Config
	body Body
	// allBook retains every book entry ever used so Reset recycles their
	// mail and send-queue buffers; book is allBook[:cfg.NumProcs].
	allBook []procBook
	book    []procBook
	now     int64

	pendingNext []Message // point-to-point messages committed this round, due next round
	spare       []Message // recycled backing buffer for pendingNext
	// pendingBcast holds one shared record per committed broadcast, due next
	// round like every send: a t-recipient broadcast costs one record here
	// instead of t Messages. Delivery expands each record into the
	// recipients' mailboxes (the Message values merely reference the record's
	// shared payload).
	pendingBcast []bcastRec
	spareBcast   []bcastRec // recycled backing buffer for pendingBcast
	// pendingUnsorted is set at append time if a commit ever lands behind a
	// higher sender PID; deliver then restores ascending-PID order. Commits
	// run in ascending PID order within a round, so this stays false and the
	// per-round sortedness scan is avoided.
	pendingUnsorted bool

	runq     runSet   // processes to step this round
	sleepers wakeHeap // (wakeAt, pid), stale entries discarded on pop
	restartq wakeHeap // (restartAt, pid) from Verdict.RestartAt, stale on pop
	live     int      // processes with StatusRunning
	// active counts the processes flagged by SetActive. Atomic because a
	// concurrent driver's processes flag themselves from inside their steps,
	// in parallel.
	active atomic.Int64

	// Optional adversary extensions, resolved once per Reset by type
	// assertion on cfg.Adversary (nil when not implemented).
	dropper   DeliveryAdversary
	restarter Restarter

	// subset is commitAction's scratch for the sends surviving a crash or
	// omission verdict; commitSends and commitCapped copy each send into a
	// Message and keep no reference to it.
	subset []Send
	// stats is the append-only slab each run's Result.PerProc is carved
	// from (see carveStats).
	stats []ProcStats

	unitsDone    []bool
	distinctDone int
	metrics      Result
	// tally is the run of equal-kind messages not yet added to
	// metrics.MessagesByKind (DetailedMetrics only): a run of one kind
	// costs one map update, made when the kind changes or at Finish.
	tally struct {
		kind  string
		count int64
	}
	err error
}

// noBroadcast is the empty broadcast of a filtered action; it is only read.
var noBroadcast Broadcast

var _ Host = (*RoundCore)(nil)

// NumProcs implements Host.
func (rc *RoundCore) NumProcs() int { return rc.cfg.NumProcs }

// NumUnits implements Host.
func (rc *RoundCore) NumUnits() int { return rc.cfg.NumUnits }

// Round implements Host. Processes read it only inside a step and the driver
// advances it only in CloseRound, between steps.
func (rc *RoundCore) Round() int64 { return rc.now }

// SetActive implements Host. A process's own flag is touched only by its
// own step or, between its steps, by the driver; only the count is shared.
func (rc *RoundCore) SetActive(pid int, v bool) {
	b := &rc.book[pid]
	if b.active == v {
		return
	}
	b.active = v
	if v {
		rc.active.Add(1)
	} else {
		rc.active.Add(-1)
	}
}

// Reset rearms the core for a fresh run of cfg over body, recycling every
// buffer a previous run left behind. Every process starts runnable: round 0
// steps everyone.
func (rc *RoundCore) Reset(cfg Config, body Body) {
	if cfg.Adversary == nil {
		cfg.Adversary = NopAdversary{}
	}
	if cfg.MaxRound == 0 {
		cfg.MaxRound = Forever
	}
	rc.cfg = cfg
	rc.body = body
	rc.now = 0
	rc.err = nil
	rc.live = cfg.NumProcs
	rc.active.Store(0)
	rc.distinctDone = 0
	rc.tally.kind, rc.tally.count = "", 0
	rc.pendingUnsorted = false
	// The recycled buffers were scrubbed of stale references when the
	// previous run ended (see Scrub); truncation is all that is left to do.
	rc.pendingNext = rc.pendingNext[:0]
	rc.spare = rc.spare[:0]
	rc.pendingBcast = rc.pendingBcast[:0]
	rc.spareBcast = rc.spareBcast[:0]
	rc.sleepers = rc.sleepers[:0]
	rc.restartq = rc.restartq[:0]
	rc.dropper, _ = cfg.Adversary.(DeliveryAdversary)
	rc.restarter, _ = cfg.Adversary.(Restarter)
	rc.runq.reset(cfg.NumProcs)
	if n := cfg.NumUnits + 1; n <= cap(rc.unitsDone) {
		rc.unitsDone = rc.unitsDone[:n]
		clear(rc.unitsDone)
	} else {
		rc.unitsDone = make([]bool, n)
	}
	// A fresh Result every run: the previous one escaped to the caller and
	// must not observe this run's counters (or map writes).
	rc.metrics = Result{CompletedRound: -1}
	if cfg.NumUnits == 0 {
		rc.metrics.CompletedRound = 0
	}
	if cfg.DetailedMetrics {
		rc.metrics.MessagesByKind = make(map[string]int64)
	}
	if cfg.NumProcs > len(rc.allBook) {
		grown := make([]procBook, cfg.NumProcs)
		copy(grown, rc.allBook)
		rc.allBook = grown
	}
	rc.book = rc.allBook[:cfg.NumProcs]
	for pid := range rc.book {
		b := &rc.book[pid]
		inbox, spare, sendq := b.inbox[:0], b.spare[:0], b.sendq[:0]
		*b = procBook{}
		b.inbox, b.spare, b.sendq = inbox, spare, sendq
		b.status = StatusRunning
		b.sentRound = -1
		rc.runq.add(pid)
	}
}

func (rc *RoundCore) fail(err error) {
	if rc.err == nil {
		rc.err = err
	}
}

// Err reports the error that failed the run, if any. Once it is set the
// round's remaining yields are dropped uncommitted.
func (rc *RoundCore) Err() error { return rc.err }

// OpenRound runs the start-of-round phases — revivals, scheduled crashes,
// delivery, wakeups, the bandwidth pump — and reports whether there is a
// round to run; false means the run is over. The runnable set is then read
// with NextRunnable and each runnable process's mail with TakeMail.
func (rc *RoundCore) OpenRound() bool {
	if rc.live == 0 && !rc.restartPending() {
		return false
	}
	if rc.now > rc.cfg.MaxRound {
		rc.fail(fmt.Errorf("%w: round %d > %d", ErrRoundLimit, rc.now, rc.cfg.MaxRound))
		return false
	}
	// Revivals precede this round's scheduled crashes and deliveries, so a
	// restarted process can be re-crashed the same round and receives the
	// messages already in flight to it.
	rc.restartDue()
	rc.crashScheduled()
	rc.deliver()
	rc.wakeSleepers()
	rc.pumpDeferred()
	return true
}

// NextRunnable returns the lowest runnable PID above after (-1 to start), or
// -1 when there is none. Committing a process never makes another runnable,
// so walking the set while committing visits exactly the processes that were
// runnable when the round opened.
func (rc *RoundCore) NextRunnable(after int) int { return rc.runq.next(after) }

// TakeMail hands out the mail staged for pid, for drivers whose processes
// keep their own inbox: the slice rides the step grant and is valid until
// pid's grant after next. Mail staged for a process that is not stepped (a
// stalled one) keeps accumulating.
func (rc *RoundCore) TakeMail(pid int) []Message { return rc.book[pid].take() }

// CloseRound runs the end-of-round phases — the invariant check and the
// fast-forward to the next round worth simulating — and reports whether the
// run goes on.
func (rc *RoundCore) CloseRound() bool {
	if rc.err != nil {
		return false
	}
	if limit := rc.cfg.MaxActive; limit > 0 {
		if n := int(rc.active.Load()); n > limit {
			rc.fail(fmt.Errorf("sim: invariant violated at round %d: %d active processes (max %d)",
				rc.now, n, limit))
			return false
		}
	}
	next := rc.nextRound()
	if next == Forever {
		if rc.live > 0 {
			rc.fail(rc.deadlock())
		}
		return false
	}
	rc.now = next
	return true
}

// deadlock is the error of a run whose live processes all sleep with no
// future event to wake them. A wake round at Forever is a deadline that
// saturated at the clock's horizon (exponential timeouts reach it at modest
// shapes), so the error names the lowest such PID and its deadline rather
// than a wait on mail.
func (rc *RoundCore) deadlock() error {
	for pid := range rc.book {
		if b := &rc.book[pid]; b.status == StatusRunning && b.sleeping && b.wakeAt >= Forever {
			return fmt.Errorf("%w: proc %d's deadline saturated at round %d (sim.Forever), the clock's horizon",
				ErrDeadlock, pid, b.wakeAt)
		}
	}
	return ErrDeadlock
}

// Finish aggregates the run's metrics. Call it once, after OpenRound or
// CloseRound reported the run over.
func (rc *RoundCore) Finish() (Result, error) {
	rc.flushTally()
	rc.metrics.Rounds = rc.now
	rc.metrics.WorkDistinct = rc.distinctDone
	rc.metrics.PerProc = rc.carveStats(len(rc.book))
	last := int64(0)
	for i := range rc.book {
		b := &rc.book[i]
		rc.metrics.PerProc[i] = ProcStats{
			Status: b.status, Work: b.workDone, Sent: b.msgsSent,
			RetireRound: b.retireRound, Actions: b.actions,
			Restarts: b.restarts, Deferred: b.deferred,
		}
		if b.status != StatusRunning {
			if b.retireRound > last {
				last = b.retireRound
			}
			if b.status == StatusTerminated {
				rc.metrics.Survivors++
			}
		}
	}
	if rc.err == nil {
		rc.metrics.Rounds = last
	}
	return rc.metrics, rc.err
}

// carveStats returns n stats entries for a Result, carved from the stats
// slab the way core's publish arenas carve views. The carved slice is
// capacity-clamped, so an append on the caller's side reallocates instead of
// reaching the next run's entries, and a full slab is abandoned to the
// Results holding it, never reset, so a returned PerProc stays the caller's
// for good. A core reused across thousands of tiny runs thus pays one
// allocation per slab, not per run. The slab doubles from 8 runs' worth up
// to statSlabLimit entries, so one retained Result pins at most one small
// slab.
func (rc *RoundCore) carveStats(n int) []ProcStats {
	// A nil slab is replaced even for n = 0: PerProc is never nil.
	if rc.stats == nil || cap(rc.stats)-len(rc.stats) < n {
		rc.stats = make([]ProcStats, 0, max(n, min(statSlabLimit, max(8*n, 2*cap(rc.stats)))))
	}
	off := len(rc.stats)
	rc.stats = rc.stats[:off+n]
	return rc.stats[off : off+n : off+n]
}

// statSlabLimit caps the stats slab, in entries.
const statSlabLimit = 256

// crashScheduled applies adversary-scheduled crashes at the start of a round.
func (rc *RoundCore) crashScheduled() {
	for _, pid := range rc.cfg.Adversary.ScheduledCrashes(rc.now) {
		if pid < 0 || pid >= len(rc.book) || rc.book[pid].status != StatusRunning {
			continue
		}
		rc.crash(pid, 0)
	}
}

// CrashGranted crashes a process whose step was granted this round but will
// never yield (its host vanished). It takes the process's turn in the
// round's ascending-PID commit order and books a round-start crash: no event
// is committed for the round, exactly as a process crashed at round R never
// steps at R.
func (rc *RoundCore) CrashGranted(pid int) { rc.crash(pid, 0) }

// crash marks a process crashed and drops what dies with it: undelivered
// mail and bandwidth-deferred sends. restartAt carries the verdict's revival
// round (0 for round-triggered crashes, which never see a verdict). A crash
// that may be revived — an explicit restartAt, or a crash under a Restarter
// that still has a restart scheduled after this round — asks the body for a
// checkpoint; a process without one is retired.
func (rc *RoundCore) crash(pid int, restartAt int64) {
	b := &rc.book[pid]
	b.status = StatusCrashed
	rc.SetActive(pid, false)
	b.retireRound = rc.now
	b.inbox = b.inbox[:0]
	b.sendq = b.sendq[:0]
	rc.live--
	rc.runq.remove(pid)
	rc.metrics.Crashes++
	revivable := restartAt > rc.now || rc.restarter != nil && rc.restarter.NextScheduledRestart(rc.now) >= 0
	if revivable && rc.body.Checkpoint(pid) {
		b.snapped = true
		if restartAt > rc.now {
			rc.restartq.push(wakeEntry{at: restartAt, pid: pid})
		}
		return
	}
	rc.body.Retire(pid)
}

// restartDue revives crashed processes whose scheduled restart round has
// arrived: verdict-scheduled restarts first (heap order), then the
// adversary's round schedule. Stale heap entries (the process restarted
// earlier via the schedule) are recognised in restart.
func (rc *RoundCore) restartDue() {
	for len(rc.restartq) > 0 && rc.restartq[0].at <= rc.now {
		rc.restart(rc.restartq.popTop().pid)
	}
	if rc.restarter != nil {
		for _, pid := range rc.restarter.ScheduledRestarts(rc.now) {
			if pid >= 0 && pid < len(rc.book) {
				rc.restart(pid)
			}
		}
	}
}

// restart revives one crashed process from its crash checkpoint. Requests
// that cannot be honoured — the process is not crashed, or holds no
// checkpoint (non-Recoverable stepper) — are ignored.
func (rc *RoundCore) restart(pid int) {
	b := &rc.book[pid]
	if b.status != StatusCrashed || !b.snapped || !rc.body.Restore(pid) {
		return
	}
	b.snapped = false
	b.status = StatusRunning
	b.sleeping = false
	b.stalled = false
	b.slowFactor = 0
	b.retireRound = 0
	b.restarts++
	rc.live++
	rc.metrics.Restarts++
	rc.runq.add(pid) // the revived process steps in its restart round
}

// restartPending reports whether a scheduled restart can still revive some
// process once live hits zero, popping stale restart-queue entries so a
// dead queue cannot keep the run spinning.
func (rc *RoundCore) restartPending() bool {
	for len(rc.restartq) > 0 {
		b := &rc.book[rc.restartq[0].pid]
		if b.status != StatusCrashed || !b.snapped {
			rc.restartq.popTop()
			continue
		}
		return true
	}
	return rc.restarter != nil && rc.restarter.NextScheduledRestart(rc.now-1) >= 0
}

// deliver moves the messages committed last round into mailboxes. Every send
// is due exactly one round after commit, so both buffers are due now;
// recipients gaining mail become runnable. Point-to-point messages and
// broadcast records are merged by sender PID, expanding each record per
// recipient, so mailboxes observe the exact (delivery round, sender) order
// of the flat per-send plane.
func (rc *RoundCore) deliver() {
	msgs, recs := rc.pendingNext, rc.pendingBcast
	if len(msgs) == 0 && len(recs) == 0 {
		return
	}
	// Commits happen in ascending PID order within a round, so both buffers
	// are already sorted by sender; commit flags the rare violation at
	// append time instead of re-scanning the whole buffer every round.
	if rc.pendingUnsorted {
		slices.SortStableFunc(msgs, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
		slices.SortStableFunc(recs, func(a, b bcastRec) int { return cmp.Compare(a.from, b.from) })
		rc.pendingUnsorted = false
	}
	mi, ri := 0, 0
	for mi < len(msgs) || ri < len(recs) {
		// On a PID tie the explicit sends go first, matching the action's
		// virtual send order (Sends, then the broadcast).
		if mi < len(msgs) && (ri >= len(recs) || msgs[mi].From <= recs[ri].from) {
			m := msgs[mi]
			mi++
			rc.deposit(m)
			continue
		}
		r := recs[ri]
		ri++
		for _, to := range r.to {
			rc.deposit(Message{From: r.from, To: to, SentAt: r.sentAt, Payload: r.payload})
		}
	}
	rc.pendingNext = rc.spare[:0]
	rc.spare = msgs[:0]
	// Drop the record references (payloads, recipient slices) before
	// recycling so a pooled core does not retain them across runs.
	clear(recs)
	rc.pendingBcast = rc.spareBcast[:0]
	rc.spareBcast = recs[:0]
}

// deposit stages one delivered message for its recipient, first consulting
// the delivery adversary (transient loss). A stalled recipient (rate
// degradation) keeps the mail but is not woken by it: the stall is a slow
// processor, not a sleep it can be prodded out of.
func (rc *RoundCore) deposit(m Message) {
	b := &rc.book[m.To]
	if b.status != StatusRunning {
		return
	}
	if rc.dropper != nil && !rc.dropper.OnDeliver(rc.now, m) {
		rc.metrics.Dropped++
		return
	}
	b.inbox = append(b.inbox, m)
	if !b.stalled {
		rc.runq.add(m.To)
	}
}

// wakeSleepers moves every sleeper whose wake time has arrived onto the run
// queue. Stale heap entries (the process was woken early by a message and
// re-slept, or retired) are recognised by re-checking the process state.
func (rc *RoundCore) wakeSleepers() {
	for len(rc.sleepers) > 0 && rc.sleepers[0].at <= rc.now {
		entry := rc.sleepers.popTop()
		b := &rc.book[entry.pid]
		if b.status == StatusRunning && b.sleeping && b.wakeAt <= rc.now {
			rc.runq.add(entry.pid)
		}
	}
}

// budgetLeft returns the process's remaining transmissions this round under
// the bandwidth cap, lazily resetting the per-round meter on first use each
// round.
func (rc *RoundCore) budgetLeft(b *procBook) int {
	if b.sentRound != rc.now {
		b.sentRound = rc.now
		b.sentInRound = 0
	}
	return rc.cfg.Bandwidth - b.sentInRound
}

// countKind adds count messages of p's kind to Result.MessagesByKind
// through the run-length tally; a no-op without DetailedMetrics.
func (rc *RoundCore) countKind(p any, count int64) {
	if rc.metrics.MessagesByKind != nil {
		rc.tallyKind(p, count)
	}
}

func (rc *RoundCore) tallyKind(p any, count int64) {
	if k := payloadKind(p); k != rc.tally.kind {
		rc.flushTally()
		rc.tally.kind = k
	}
	rc.tally.count += count
}

// flushTally adds the pending run of the tally to MessagesByKind.
func (rc *RoundCore) flushTally() {
	if rc.tally.count > 0 {
		rc.metrics.MessagesByKind[rc.tally.kind] += rc.tally.count
		rc.tally.count = 0
	}
}

// transmit books one capped-mode message onto the next-round buffer:
// Messages and the per-process meter advance at transmission, not commit, so
// a queued send that never transmits (sender crashed) is never counted sent.
func (rc *RoundCore) transmit(b *procBook, m Message) {
	rc.metrics.Messages++
	b.msgsSent++
	b.sentInRound++
	rc.countKind(m.Payload, 1)
	if n := len(rc.pendingNext); n > 0 && rc.pendingNext[n-1].From > m.From {
		rc.pendingUnsorted = true
	}
	rc.pendingNext = append(rc.pendingNext, m)
}

// pumpDeferred drains each process's bandwidth-deferred send queue into the
// next-round buffer, up to the round's budget, in ascending PID order. It
// runs before the round's steps, so backlog transmits ahead of (and meters
// against the same budget as) the sends this round's actions commit. Crashes
// drop the sender's queue, so only live and voluntarily-retired processes
// pump here; a terminated process's tail keeps draining because the messages
// were committed while it ran.
func (rc *RoundCore) pumpDeferred() {
	if rc.cfg.Bandwidth <= 0 {
		return
	}
	for pid := range rc.book {
		b := &rc.book[pid]
		q := b.sendq
		if len(q) == 0 {
			continue
		}
		i := 0
		for i < len(q) && rc.budgetLeft(b) > 0 {
			rc.transmit(b, q[i])
			i++
		}
		if i > 0 {
			rest := copy(q, q[i:])
			clear(q[rest:]) // drop moved payload references
			b.sendq = q[:rest]
		}
	}
}

// retire books a process leaving the run for good without a crash verdict
// (halt or panic) and releases its body.
func (rc *RoundCore) retire(pid int, status Status) {
	b := &rc.book[pid]
	b.status = status
	rc.SetActive(pid, false)
	b.retireRound = rc.now
	rc.live--
	rc.runq.remove(pid)
	rc.body.Retire(pid)
}

// CommitPanic takes the turn of a process whose step panicked: the run fails
// deterministically with the engine's error text on every plane.
func (rc *RoundCore) CommitPanic(pid int, v any) {
	rc.metrics.Events++
	rc.retire(pid, StatusCrashed)
	rc.fail(fmt.Errorf("sim: proc %d panicked: %v", pid, v))
}

// Commit applies the yield pid's step returned. Yields of one round must be
// committed in ascending PID order, so stateful adversaries, metrics and the
// next-round buffers observe one sequence whatever order the steps ran in.
// The core reads y only during the call.
func (rc *RoundCore) Commit(pid int, y *Yield) {
	b := &rc.book[pid]
	b.sleeping = false
	b.stalled = false
	rc.metrics.Events++
	switch y.Kind {
	case YieldAction:
		rc.commitAction(pid, b, &y.Action)
	case YieldSleep:
		b.sleeping = true
		b.wakeAt = y.Until
		rc.runq.remove(pid)
		rc.sleepers.push(wakeEntry{at: y.Until, pid: pid})
	case YieldHalt:
		rc.trace(pid, 0, 0, false, true)
		rc.retire(pid, StatusTerminated)
	}
}

// commitAction applies an action, consulting the adversary for its verdict.
func (rc *RoundCore) commitAction(pid int, b *procBook, a *Action) {
	b.actions++
	verdict := rc.cfg.Adversary.OnAction(rc.now, pid, *a)
	work := a.WorkUnit // the unit this commit counts; a crash may discard it
	sends, bcast := a.Sends, &a.Broadcast
	if verdict.Crash {
		if !verdict.KeepWork {
			work = 0
		}
		// Crash mid-action: Deliver indexes the action's virtual send list
		// (explicit sends, then the broadcast per recipient), so subset
		// verdicts apply per recipient against the broadcast record. The
		// rare surviving subset is materialized as plain messages.
		sends, bcast = rc.surviving(a, verdict.Deliver), &noBroadcast
	} else if verdict.Omit {
		// Send omission: same Deliver-mask filtering as a crash, but the
		// process lives on and keeps its work. Suppressed sends never
		// transmit (they are invisible to Messages) and are tallied.
		sends, bcast = rc.surviving(a, verdict.Deliver), &noBroadcast
		rc.metrics.Omitted += int64(a.SendCount() - len(sends))
	}
	if work > 0 {
		rc.metrics.WorkTotal++
		b.workDone++
		if work < len(rc.unitsDone) && !rc.unitsDone[work] {
			rc.unitsDone[work] = true
			rc.distinctDone++
			if rc.distinctDone == rc.cfg.NumUnits && rc.metrics.CompletedRound < 0 {
				rc.metrics.CompletedRound = rc.now
			}
		}
	}
	if rc.cfg.Bandwidth > 0 {
		if !rc.commitCapped(pid, b, sends, bcast) {
			return
		}
	} else if !rc.commitSends(pid, b, sends, bcast) {
		return
	}
	rc.trace(pid, work, a.SendCount(), verdict.Crash, false)
	if verdict.Crash {
		rc.crash(pid, verdict.RestartAt)
		return
	}
	if verdict.Slow > 0 {
		b.slowFactor = verdict.Slow
	}
	if b.slowFactor > 1 {
		// Rate degradation: the action committed, but the next one is
		// slowFactor rounds away instead of one. The stall is modelled as a
		// sleep that mail cannot cut short (see deposit).
		b.sleeping, b.stalled = true, true
		b.wakeAt = rc.now + int64(b.slowFactor)
		rc.runq.remove(pid)
		rc.sleepers.push(wakeEntry{at: b.wakeAt, pid: pid})
	}
}

// surviving filters a's virtual send list through a Deliver mask into the
// core's subset scratch, which stays valid until the next verdict.
func (rc *RoundCore) surviving(a *Action, deliver []bool) []Send {
	sends := rc.subset[:0]
	for i, n := 0, a.SendCount(); i < n && i < len(deliver); i++ {
		if deliver[i] {
			sends = append(sends, a.SendAt(i))
		}
	}
	rc.subset = sends
	return sends
}

// commitSends books an action's sends onto the next-round buffers with no
// bandwidth cap. Reports false when the run has failed.
func (rc *RoundCore) commitSends(pid int, b *procBook, sends []Send, bcast *Broadcast) bool {
	if len(sends) > 0 || len(bcast.To) > 0 {
		if n := len(rc.pendingNext); n > 0 && rc.pendingNext[n-1].From > pid {
			rc.pendingUnsorted = true
		}
		if n := len(rc.pendingBcast); n > 0 && rc.pendingBcast[n-1].from > pid {
			rc.pendingUnsorted = true
		}
	}
	for _, s := range sends {
		if s.To < 0 || s.To >= len(rc.book) {
			rc.fail(fmt.Errorf("sim: proc %d sent to invalid pid %d", pid, s.To))
			return false
		}
		rc.metrics.Messages++
		b.msgsSent++
		rc.countKind(s.Payload, 1)
		rc.pendingNext = append(rc.pendingNext, Message{
			From: pid, To: s.To, SentAt: rc.now, Payload: s.Payload,
		})
	}
	if len(bcast.To) > 0 {
		// One shared record regardless of fanout. Counters still advance
		// per recipient (a broadcast is len(To) point-to-point messages in
		// the model), mirroring the flat plane's valid-prefix accounting on
		// the invalid-PID failure path.
		var counted int64
		for _, to := range bcast.To {
			if to < 0 || to >= len(rc.book) {
				rc.countKind(bcast.Payload, counted)
				rc.fail(fmt.Errorf("sim: proc %d sent to invalid pid %d", pid, to))
				return false
			}
			counted++
			rc.metrics.Messages++
			b.msgsSent++
		}
		rc.countKind(bcast.Payload, counted)
		rc.pendingBcast = append(rc.pendingBcast, bcastRec{
			from: pid, sentAt: rc.now, payload: bcast.Payload, to: bcast.To,
		})
	}
	return true
}

// commitCapped books an action's sends under the bandwidth cap: the virtual
// send list (explicit sends, then the broadcast per recipient) is walked in
// order, transmitting while this round's budget lasts and queueing the
// remainder on the sender. Broadcasts flatten to plain messages — a deferred
// shared record would alias the sender's recipient scratch across rounds —
// and the flat order matches the uncapped delivery merge exactly. Recipient
// validation stays at commit with the uncapped path's error text and
// valid-prefix accounting. Reports false when the run has failed.
func (rc *RoundCore) commitCapped(pid int, b *procBook, sends []Send, bcast *Broadcast) bool {
	for _, s := range sends {
		if s.To < 0 || s.To >= len(rc.book) {
			rc.fail(fmt.Errorf("sim: proc %d sent to invalid pid %d", pid, s.To))
			return false
		}
		rc.sendCapped(b, Message{From: pid, To: s.To, SentAt: rc.now, Payload: s.Payload})
	}
	for _, to := range bcast.To {
		if to < 0 || to >= len(rc.book) {
			rc.fail(fmt.Errorf("sim: proc %d sent to invalid pid %d", pid, to))
			return false
		}
		rc.sendCapped(b, Message{From: pid, To: to, SentAt: rc.now, Payload: bcast.Payload})
	}
	return true
}

// sendCapped transmits one committed message if the sender has budget left
// this round, deferring it otherwise. Deferred is counted here, once, at the
// overflowing commit.
func (rc *RoundCore) sendCapped(b *procBook, m Message) {
	if rc.budgetLeft(b) > 0 {
		rc.transmit(b, m)
		return
	}
	b.sendq = append(b.sendq, m)
	b.deferred++
	rc.metrics.Deferred++
}

func (rc *RoundCore) trace(pid, work, sent int, crashed, halted bool) {
	if rc.cfg.Tracer == nil {
		return
	}
	rc.cfg.Tracer(Event{
		Round: rc.now, PID: pid, Label: rc.body.Label(pid),
		Work: work, Sent: sent,
		Crashed: crashed, Halted: halted,
	})
}

// nextRound chooses the next round to simulate, fast-forwarding over quiet
// stretches in which every live process sleeps.
func (rc *RoundCore) nextRound() int64 {
	if rc.runq.count > 0 || len(rc.pendingNext) > 0 || len(rc.pendingBcast) > 0 {
		// Someone acted this round (and so runs again next round), gained
		// mail, or has mail in flight.
		return rc.now + 1
	}
	next := Forever
	for len(rc.sleepers) > 0 {
		top := rc.sleepers[0]
		b := &rc.book[top.pid]
		if b.status != StatusRunning || !b.sleeping || b.wakeAt != top.at {
			rc.sleepers.popTop() // stale entry
			continue
		}
		next = top.at
		break
	}
	if c := rc.cfg.Adversary.NextScheduledCrash(rc.now); c >= 0 && c < next {
		next = c
	}
	// Pending revivals bound the jump too; stale restart entries cost one
	// extra (cheap) visited round rather than an eager heap fixup.
	if len(rc.restartq) > 0 && rc.restartq[0].at < next {
		next = rc.restartq[0].at
	}
	if rc.restarter != nil {
		if r := rc.restarter.NextScheduledRestart(rc.now); r >= 0 && r < next {
			next = r
		}
	}
	if next <= rc.now {
		next = rc.now + 1
	}
	return next
}

// scrubPair scrubs a pair of buffers that swap roles and gives the smaller
// the larger's capacity: each run leaves both at the size either reached,
// so a fresh engine reaches its steady size in one run instead of growing
// each buffer of a pair in a run of its own.
func scrubPair[T any](a, b *[]T) {
	*a, *b = scrubSlice(*a), scrubSlice(*b)
	if cap(*a) < cap(*b) {
		*a = make([]T, 0, cap(*b))
	} else if cap(*b) < cap(*a) {
		*b = make([]T, 0, cap(*a))
	}
}

// scrubSlice zeroes a recycled buffer through its full capacity — dropping
// the payload references parked in the cap region — and truncates it.
func scrubSlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// Scrub runs at the end of every pooled run: it releases every payload
// reference the run parked in the core's recycled buffers (next-round
// messages and records, mailboxes, send queues), so an idle core sitting in
// a pool does not keep the previous run's data alive.
//
// Only the current run's book needs scrubbing: allBook beyond cfg.NumProcs
// was scrubbed at the end of the last run that used it and has not been
// rearmed since (Reset touches book[:NumProcs] only), so a small run on a
// pooled core with a large-shape history stays O(t), not O(max t ever seen)
// — schedule-space walks recycle one engine across thousands of tiny runs
// and would otherwise pay the large shape each time.
func (rc *RoundCore) Scrub() {
	scrubPair(&rc.pendingNext, &rc.spare)
	scrubPair(&rc.pendingBcast, &rc.spareBcast)
	rc.subset = scrubSlice(rc.subset)
	for pid := range rc.book {
		b := &rc.book[pid]
		b.mailbox.scrub()
		b.sendq = scrubSlice(b.sendq)
	}
}
