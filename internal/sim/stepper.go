package sim

// This file declares the process body every plane runs: a Stepper, an
// explicit state machine driven by direct function call on the plane's own
// stack. The plane calls Step once per event and the stepper returns what
// the process does next — one unit of work plus one round of messages, a
// sleep, or a halt — as a plain value. Crashing a process is a state flip
// in the round core.

// YieldKind discriminates what a stepper's Step decided to do.
type YieldKind uint8

const (
	// YieldHalt terminates the process voluntarily. It is the zero value so
	// that a forgotten return halts rather than loops.
	YieldHalt YieldKind = iota
	// YieldAction commits an Action (work and/or sends) for this round; the
	// process runs again next round.
	YieldAction
	// YieldSleep suspends the process until round Until, or earlier if a
	// message is delivered to it.
	YieldSleep
)

// Yield is one process decision — act, sleep or halt — as a plain return
// value.
type Yield struct {
	Kind   YieldKind
	Action Action // meaningful when Kind == YieldAction
	Until  int64  // meaningful when Kind == YieldSleep
}

// Stepper is the body of a simulated process in state-machine form. The
// engine calls Step at round 0, after each committed action, when a message
// is delivered, and when a sleep expires. Step must return the process's
// next decision; it may call the Proc methods (Drain, HasMail, Now,
// SetActive, BroadcastTo, ...).
type Stepper interface {
	Step(p *Proc) Yield
}

// Recoverable marks a stepper whose entire state can be checkpointed and
// rewound, which is what makes crash-recovery faults (Verdict.RestartAt,
// Restarter) possible: the plane calls Snapshot at crash time and Restore
// when the scheduled restart round arrives, before the process steps again.
// Restore must leave the stepper exactly as it was when Snapshot was taken,
// and the snapshot must be insulated from later mutation of the live stepper
// (deep-copy any mutable state). Restore leaves the snapshot untouched and
// shares no mutable state with it, so a snapshot may be restored any number
// of times. A process whose stepper is not Recoverable ignores restart
// requests and stays crashed.
type Recoverable interface {
	Stepper
	// Snapshot returns an opaque checkpoint of the stepper's state.
	Snapshot() any
	// Restore rewinds the stepper to a value returned by Snapshot.
	Restore(snap any)
}

// FlattenBroadcasts wraps a stepper so every broadcast-valued action it
// yields is expanded into the equivalent per-send action before reaching the
// engine. The flat plane is the reference semantics of the broadcast record
// plane: running a protocol both ways must produce reflect.DeepEqual Results
// (the plane-equivalence tests use exactly this wrapper).
func FlattenBroadcasts(s Stepper) Stepper { return flatten{s} }

type flatten struct{ inner Stepper }

func (f flatten) Step(p *Proc) Yield {
	y := f.inner.Step(p)
	if y.Kind != YieldAction || len(y.Action.Broadcast.To) == 0 {
		return y
	}
	sends := make([]Send, 0, y.Action.SendCount())
	for i, n := 0, y.Action.SendCount(); i < n; i++ {
		sends = append(sends, y.Action.SendAt(i))
	}
	return Yield{Kind: YieldAction, Action: Action{WorkUnit: y.Action.WorkUnit, Sends: sends}}
}
