package sim

import "errors"

// Config parameterises an Engine.
type Config struct {
	// NumProcs is the number of processes t (IDs 0..t-1).
	NumProcs int
	// NumUnits is the number of work units n (IDs 1..n). Units outside
	// 1..NumUnits still count toward WorkTotal but not toward completion.
	NumUnits int
	// Adversary injects crash failures. nil means no failures.
	Adversary Adversary
	// MaxRound aborts runs that exceed this round (0 = a large default).
	MaxRound int64
	// MaxActive, when > 0, makes the engine verify after every round that at
	// most MaxActive processes have SetActive(true). Single-active protocols
	// (A, B, C) set this to 1 in tests.
	MaxActive int
	// Bandwidth, when > 0, caps the point-to-point messages each process may
	// transmit per round (the congested-clique model): an action's sends past
	// the cap are queued on the sender and transmitted by later rounds' pump
	// phase in commit order, competing with that round's fresh sends for the
	// same budget. 0 means unlimited. See DESIGN.md "Bandwidth cap".
	Bandwidth int
	// DetailedMetrics enables per-kind message counting.
	DetailedMetrics bool
	// Tracer, when non-nil, receives one event per committed action.
	Tracer func(Event)
}

// Event is a trace record of one committed action.
type Event struct {
	Round int64
	PID   int
	Label string
	// Work is the unit the commit counted in Result.WorkTotal: 0 when the
	// action performed none or a crash discarded it.
	Work     int
	Sent     int
	Crashed  bool
	Halted   bool
	Activity string
}

// Result aggregates the metrics of a completed run.
type Result struct {
	// WorkTotal counts units of work performed, with multiplicity.
	WorkTotal int64
	// WorkDistinct counts distinct units in 1..NumUnits performed.
	WorkDistinct int
	// Messages counts point-to-point messages transmitted.
	Messages int64
	// MessagesByKind breaks Messages down per payload kind (only when
	// Config.DetailedMetrics is set).
	MessagesByKind map[string]int64
	// Rounds is the round by which every process had retired.
	Rounds int64
	// CompletedRound is the first round at which all units had been
	// performed, or -1 if the run ended incomplete.
	CompletedRound int64
	// Survivors is the number of processes that terminated voluntarily.
	Survivors int
	// Crashes is the number of times the adversary crashed a process (a
	// restarted process may crash again; each crash counts).
	Crashes int
	// Restarts counts crash-recovery revivals (Verdict.RestartAt and
	// Restarter schedules that actually restored a process).
	Restarts int64
	// Dropped counts messages the adversary suppressed at delivery time
	// (DeliveryAdversary verdicts); they are included in Messages, which
	// counts transmissions.
	Dropped int64
	// Omitted counts sends suppressed by send-omission verdicts
	// (Verdict.Omit); unlike Dropped these never transmitted and are not in
	// Messages.
	Omitted int64
	// Deferred counts sends postponed by the bandwidth cap
	// (Config.Bandwidth), each counted once at the commit that overflowed the
	// budget. A deferred send that later transmits also counts in Messages; a
	// deferred send dropped by a crash of its sender counts here only.
	Deferred int64
	// Events counts process steps, i.e. the simulation work actually
	// done; Rounds/Events measures the fast-forward speedup.
	Events int64
	// PerProc holds per-process statistics indexed by PID.
	PerProc []ProcStats
}

// Effort is work plus messages, the paper's combined cost measure.
func (r Result) Effort() int64 { return r.WorkTotal + r.Messages }

// Complete reports whether every unit of work was performed.
func (r Result) Complete() bool { return r.CompletedRound >= 0 }

// ProcStats summarises one process's run.
type ProcStats struct {
	Status      Status
	Work        int64
	Sent        int64
	RetireRound int64
	// Actions counts the actions this process committed — the adversary's
	// decision points: OnAction is consulted exactly once per committed
	// action. Schedule-space exploration (internal/explore) uses the
	// failure-free Actions horizon to bound its action-indexed crash choices.
	Actions int64
	// Restarts counts this process's crash-recovery revivals.
	Restarts int64
	// Deferred counts this process's sends postponed by the bandwidth cap.
	Deferred int64
}

// Engine is the inline driver of the round core: it steps every runnable
// process by direct call on its own stack and commits each yield straight
// away. All round semantics live in RoundCore (round.go); the engine owns
// only the Proc handles and their bodies.
type Engine struct {
	rc    RoundCore
	procs []*Proc
	// allProcs retains every Proc ever built by this engine (slab-allocated)
	// so Reset can rearm them — scratch buffers included — instead of
	// reallocating; procs is allProcs[:NumProcs].
	allProcs []*Proc
}

// ErrRoundLimit is returned when a run exceeds Config.MaxRound.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// ErrDeadlock is returned when live processes remain but no future event can
// ever wake any of them; the returned error wraps it and names the process
// whose deadline saturated at Forever.
var ErrDeadlock = errors.New("sim: deadlock, all processes asleep forever")

// NewStepper builds an engine over state-machine process bodies; steppers(id)
// supplies each process's Stepper.
func NewStepper(cfg Config, steppers func(id int) Stepper) *Engine {
	e := &Engine{}
	e.Reset(cfg, steppers)
	return e
}

// Reset rearms the engine for a fresh run, recycling every piece of run
// state a previous run left behind — the round core with its per-process
// book and message buffers, the Proc objects and their scratch buffers — so
// sweeps that reuse one engine per worker pay near-zero setup allocation
// per run. A Reset engine is indistinguishable from a NewStepper one: the
// reuse-determinism tests pin byte-identical Results. Safe after a
// completed, failed or aborted Run; not safe concurrently with one.
func (e *Engine) Reset(cfg Config, steppers func(id int) Stepper) {
	e.rc.Reset(cfg, (*engineBody)(e))
	if cfg.NumProcs > len(e.allProcs) {
		slab := make([]Proc, cfg.NumProcs-len(e.allProcs))
		for i := range slab {
			e.allProcs = append(e.allProcs, &slab[i])
		}
	}
	e.procs = e.allProcs[:cfg.NumProcs]
	for id, p := range e.procs {
		// Engine procs read their mail where the core stages it: delivery
		// is one append, with no per-message hand-over at step time.
		p.rearm(&e.rc, &e.rc.book[id].mailbox, id, steppers(id))
	}
}

// Run executes the simulation until every process has retired, then returns
// the aggregated metrics. Reset rearms the engine for another run.
func (e *Engine) Run() (Result, error) {
	defer e.release()
	rc := &e.rc
	var y Yield // one yield per run, written in place by every step
	for rc.OpenRound() {
		for pid := rc.NextRunnable(-1); pid >= 0 && rc.err == nil; pid = rc.NextRunnable(pid) {
			if pv, panicked := stepProc(e.procs[pid], &y); panicked {
				rc.CommitPanic(pid, pv)
			} else {
				rc.Commit(pid, &y)
			}
		}
		if !rc.CloseRound() {
			break
		}
	}
	return rc.Finish()
}

// stepProc runs one step into y by a direct Step call, converting a panic in
// the process body into a value so the run can fail deterministically.
func stepProc(p *Proc, y *Yield) (pv any, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			pv, panicked = r, true
		}
	}()
	*y = p.stepper.Step(p)
	return nil, false
}

// engineBody is the engine's Body: the process bodies are the Procs' own
// steppers, on this goroutine.
type engineBody Engine

// Label implements Body.
func (e *engineBody) Label(pid int) string { return e.procs[pid].label }

// Checkpoint implements Body. The process's mail is the core's own staging
// buffer, which the core has already dropped.
func (e *engineBody) Checkpoint(pid int) bool { return e.procs[pid].SnapshotState() }

// Restore implements Body.
func (e *engineBody) Restore(pid int) bool { return e.procs[pid].RestoreState() }

// Retire implements Body: retirement is a pure state flip in the core.
func (e *engineBody) Retire(int) {}

// release runs at the end of every Run, abort paths included: it drops every
// reference the run parked in recycled buffers, so an idle engine sitting in
// a pool does not keep the previous run's data alive.
func (e *Engine) release() {
	for _, p := range e.procs {
		p.Scrub()
	}
	e.rc.Scrub()
}
