package sim

// Verdict is the adversary's ruling on a single committed action. The
// extended fault alphabet (DESIGN.md §3) is expressed through one verdict
// type so every fault kind flows through the same decision point on both
// execution planes: crash (fail-stop, possibly mid-broadcast), send-omission
// (Omit), crash-recovery (Crash + RestartAt) and rate degradation (Slow).
// Transient message loss is ruled at delivery time instead; see
// DeliveryAdversary.
type Verdict struct {
	// Crash kills the process at this round.
	Crash bool
	// KeepWork, meaningful only when Crash is set, records whether the work
	// unit of the action completed before the crash. (A process may crash
	// "immediately after performing a unit of work, before reporting it".)
	KeepWork bool
	// Deliver, meaningful when Crash or Omit is set, selects which of the
	// action's sends are transmitted: Deliver[i] corresponds to the action's
	// virtual send list (explicit Sends, then the broadcast per recipient).
	// nil delivers nothing. Under Crash this models crashing in the middle
	// of a broadcast, where an arbitrary subset of the recipients receives
	// the message.
	Deliver []bool
	// Omit, meaningful only when Crash is not set, suppresses the sends NOT
	// selected by Deliver while the process lives on: a send-omission fault.
	// The action's work unit always counts; suppressed sends are tallied in
	// Result.Omitted. The process itself never learns the sends were lost.
	Omit bool
	// Slow, when > 0 on a surviving process, sets its rate-degradation
	// factor from this action on: factor k > 1 stalls the process for k-1
	// rounds after every committed action (so it commits one action per k
	// rounds); 1 restores full speed. The factor persists until changed.
	Slow int
	// RestartAt, meaningful only when Crash is set, schedules the process
	// to restart at that (strictly later) round from a checkpoint of its
	// state taken at the crash. Restarting requires a Recoverable stepper;
	// a non-recoverable process stays crashed and the request is ignored.
	RestartAt int64
}

// Survive is the verdict that lets the whole action through.
func Survive() Verdict { return Verdict{} }

// Adversary decides crash failures. Implementations must be deterministic
// functions of their own state and the observed execution so that runs are
// reproducible. An Adversary may additionally implement DeliveryAdversary
// (transient message loss) and Restarter (round-scheduled crash recovery);
// both planes discover the optional interfaces by type assertion when a run
// starts.
type Adversary interface {
	// OnAction is consulted every time a running process commits an action.
	// The returned verdict may crash the process, possibly mid-broadcast.
	OnAction(round int64, pid int, action Action) Verdict

	// ScheduledCrashes lists processes that crash at the start of the given
	// round regardless of whether they act. It is used to crash sleeping
	// processes at specific times (this matters only for time metrics; a
	// silent process that crashes at its next action is indistinguishable
	// to the protocol from one that crashed while asleep).
	ScheduledCrashes(round int64) []int

	// NextScheduledCrash returns the earliest round strictly greater than
	// `after` with a scheduled crash, or -1 if there is none. The engine
	// uses it to avoid fast-forwarding past a scheduled crash.
	NextScheduledCrash(after int64) int64
}

// DeliveryAdversary is the optional message-loss extension of Adversary:
// OnDeliver is consulted once per message at the moment it would enter the
// recipient's inbox (after crash filtering — messages to retired processes
// are discarded before the adversary sees them, identically on both planes).
// Returning false drops the message; drops are tallied in Result.Dropped.
// Like OnAction, OnDeliver must be a deterministic function of adversary
// state and the observed execution — seeded randomness is fine, wall-clock
// or map-order dependence is not — so that runs replay identically.
type DeliveryAdversary interface {
	OnDeliver(round int64, m Message) bool
}

// Restarter is the optional crash-recovery extension of Adversary for
// round-scheduled crashes (the ScheduledCrashes path, which never sees a
// Verdict): it lists which processes restart at the start of a given round.
// Action-triggered restarts use Verdict.RestartAt instead. When an Adversary
// implements Restarter, the planes checkpoint a Recoverable process at crash
// time while NextScheduledRestart reports a restart still to come, so any
// crashed process can be revived by it; a crash after the last scheduled
// restart takes no checkpoint.
type Restarter interface {
	// ScheduledRestarts lists processes that restart at the start of the
	// given round (if crashed and recoverable; others are ignored).
	ScheduledRestarts(round int64) []int
	// NextScheduledRestart returns the earliest round strictly greater
	// than `after` with a scheduled restart, or -1 if there is none. The
	// planes use it to avoid fast-forwarding past a revival.
	NextScheduledRestart(after int64) int64
}

// NopAdversary never crashes anything. It is the zero-failure environment
// and a convenient embedding base for action-driven adversaries.
type NopAdversary struct{}

var _ Adversary = NopAdversary{}

// OnAction implements Adversary.
func (NopAdversary) OnAction(int64, int, Action) Verdict { return Survive() }

// ScheduledCrashes implements Adversary.
func (NopAdversary) ScheduledCrashes(int64) []int { return nil }

// NextScheduledCrash implements Adversary.
func (NopAdversary) NextScheduledCrash(int64) int64 { return -1 }
