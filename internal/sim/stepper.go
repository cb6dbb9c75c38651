package sim

import "iter"

// This file implements the engine's second execution substrate: steppers.
//
// A Script models a process as a blocking function run as a coroutine and
// pays one coroutine switch each way per simulated event. A Stepper models
// the same process as an explicit state machine driven by direct function
// call on the engine's own stack: the engine calls Step once per event and
// the stepper returns what the process does next as a plain value. Crashing
// a stepper-backed process is a state flip; crashing a script stops its
// coroutine.
//
// The two substrates are interchangeable and may be mixed within one engine:
// New wraps every Script in a coroutine-backed shim (ScriptStepper) so
// existing process code runs unchanged, while hot protocols provide native
// steppers.

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

// Yield is one process decision: the action/sleep/halt triple that a Script
// expresses by calling Step*/WaitUntil/Halt, as a plain return value.
type Yield struct {
	Kind   YieldKind
	Action Action // meaningful when Kind == YieldAction
	Until  int64  // meaningful when Kind == YieldSleep
}

// Stepper is the body of a simulated process in state-machine form. The
// engine calls Step exactly when a Script would be resumed: at round 0, after
// each committed action, when a message is delivered, and when a sleep
// expires. Step must return the process's next decision; it may call the
// non-blocking Proc methods (Drain, HasMail, Now, SetActive, Broadcast, ...)
// but not the blocking ones (Step*, WaitUntil, Halt).
type Stepper interface {
	Step(p *Proc) Yield
}

// ScriptStepper wraps a blocking Script as a Stepper backed by a coroutine.
// It is the compatibility shim behind New; it is exported so that engines
// built with NewStepper can mix native steppers with legacy scripts, and it
// may sit behind any decorator (Slowed, FlattenBroadcasts) that calls its
// Step.
func ScriptStepper(s Script) Stepper { return &coShim{script: s} }

// Recoverable marks a stepper whose entire state can be checkpointed and
// rewound, which is what makes crash-recovery faults (Verdict.RestartAt,
// Restarter) possible: the plane calls Snapshot at crash time and Restore
// when the scheduled restart round arrives, before the process steps again.
// Restore must leave the stepper exactly as it was when Snapshot was taken,
// and the snapshot must be insulated from later mutation of the live stepper
// (deep-copy any mutable state). Restore leaves the snapshot untouched and
// shares no mutable state with it, so a snapshot may be restored any number
// of times. Script-backed steppers are never Recoverable — a coroutine's
// stack cannot be checkpointed — so script processes ignore restart requests
// and stay crashed.
type Recoverable interface {
	Stepper
	// Snapshot returns an opaque checkpoint of the stepper's state.
	Snapshot() any
	// Restore rewinds the stepper to a value returned by Snapshot.
	Restore(snap any)
}

// Slowed wraps a stepper so every productive step is followed by k-1 idle
// actions: the statically-assigned rate-degradation model (the
// quarter-efficiency idiom is k = 4), as opposed to the adversary-driven
// Verdict.Slow which stalls the process between actions from the outside.
// A Slowed process still occupies its rounds — each pad action passes
// through the adversary like any other committed action — so its per-proc
// Actions count grows k-fold while its protocol progress drops k-fold.
// k <= 1 returns the stepper unchanged. Script-backed steppers may be
// wrapped; a Recoverable stepper stays recoverable, with the pad counter
// checkpointed alongside the inner state.
func Slowed(st Stepper, k int) Stepper {
	if k <= 1 {
		return st
	}
	s := &slowed{inner: st, k: k}
	if _, ok := st.(Recoverable); ok {
		return slowedRec{s}
	}
	return s
}

type slowed struct {
	inner Stepper
	k     int
	pad   int // idle actions still owed before the next productive step
}

func (s *slowed) Step(p *Proc) Yield {
	if s.pad > 0 {
		s.pad--
		return Yield{Kind: YieldAction}
	}
	y := s.inner.Step(p)
	if y.Kind == YieldAction {
		s.pad = s.k - 1
	}
	return y
}

// slowedSnap checkpoints a slowed Recoverable stepper: inner state plus the
// owed pad count, so a restart resumes mid-degradation cycle exactly.
type slowedSnap struct {
	inner any
	pad   int
}

type slowedRec struct{ *slowed }

func (s slowedRec) Snapshot() any {
	return slowedSnap{inner: s.inner.(Recoverable).Snapshot(), pad: s.pad}
}

func (s slowedRec) Restore(snap any) {
	sn := snap.(slowedSnap)
	s.inner.(Recoverable).Restore(sn.inner)
	s.pad = sn.pad
}

// FlattenBroadcasts wraps a stepper so every broadcast-valued action it
// yields is expanded into the equivalent per-send action before reaching the
// engine. The flat plane is the reference semantics of the broadcast record
// plane: running a protocol both ways must produce reflect.DeepEqual Results
// (the plane-equivalence tests use exactly this wrapper). Script-backed
// steppers may be wrapped too.
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

// coShim runs a Script as an iter.Pull coroutine. The coroutine is created
// on the first Step, which binds the shim to the Proc it is stepped with: the
// Proc's blocking methods yield through it and Release stops it. A process
// that crashes before ever running costs nothing.
type coShim struct {
	script Script
	next   func() (Yield, bool)
	stop   func()
}

// unwind is the sentinel panic that unwinds a script's coroutine: a blocking
// call raises it when its yield reports the coroutine stopped (Halt, crash,
// shutdown). A runtime.Goexit would not do, since iter.Pull re-raises it on
// the goroutine that stepped the script.
type unwind struct{}

// Step implements Stepper: resume the script until its next blocking call.
// A script panic is re-raised here, on the stepping goroutine, so both
// substrates share one failure path. A halted or returned script is stopped
// before Step returns, so it holds no coroutine.
func (sh *coShim) Step(p *Proc) Yield {
	if sh.next == nil {
		p.shim = sh
		sh.next, sh.stop = iter.Pull(func(yield func(Yield) bool) {
			defer func() {
				if r := recover(); r != nil && r != (unwind{}) {
					panic(r)
				}
			}()
			p.co = yield
			sh.script(p)
		})
	}
	y, ok := sh.next()
	if !ok || y.Kind == YieldHalt {
		sh.stop()
		return Yield{Kind: YieldHalt}
	}
	return y
}
