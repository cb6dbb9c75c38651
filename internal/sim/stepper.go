package sim

// This file implements the engine's second execution substrate: steppers.
//
// A Script models a process as a blocking function in its own goroutine and
// pays two channel handoffs plus a scheduler round-trip per simulated event.
// A Stepper models the same process as an explicit state machine driven by
// direct function call on the engine's own stack: the engine calls Step once
// per event and the stepper returns what the process does next as a plain
// value. No goroutine, no channels, and crashing a stepper-backed process is
// a state flip instead of a channel kill.
//
// The two substrates are interchangeable and may be mixed within one engine:
// New wraps every Script in a goroutine-backed shim (ScriptStepper) so
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

// ScriptStepper wraps a blocking Script as a Stepper backed by a goroutine.
// It is the compatibility shim behind New; it is exported so that engines
// built with NewStepper can mix native steppers with legacy scripts. The
// returned value must reach the engine as-is (or from a wrapper that
// forwards the scriptShim method of shimHolder): the engine needs the shim
// to route the script's blocking Proc calls and to release the goroutine on
// crash.
func ScriptStepper(s Script) Stepper { return newGoShim(s) }

// shimHolder is how the engine recognises a script-backed stepper, possibly
// behind a decorator: implement it by forwarding to the wrapped
// ScriptStepper's own scriptShim.
type shimHolder interface{ scriptShim() *goShim }

func (sh *goShim) scriptShim() *goShim { return sh }

// Recoverable marks a stepper whose entire state can be checkpointed and
// rewound, which is what makes crash-recovery faults (Verdict.RestartAt,
// Restarter) possible: the plane calls Snapshot at crash time and Restore
// when the scheduled restart round arrives, before the process steps again.
// Restore must leave the stepper exactly as it was when Snapshot was taken,
// and the snapshot must be insulated from later mutation of the live stepper
// (deep-copy any mutable state). Restore leaves the snapshot untouched and
// shares no mutable state with it, so a snapshot may be restored any number
// of times. Script-backed steppers are never Recoverable — a goroutine stack
// cannot be checkpointed — so script processes ignore restart requests and
// stay crashed.
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
// wrapped (the shim is forwarded); a Recoverable stepper stays recoverable,
// with the pad counter checkpointed alongside the inner state.
func Slowed(st Stepper, k int) Stepper {
	if k <= 1 {
		return st
	}
	s := &slowed{inner: st, k: k}
	if sh, ok := st.(shimHolder); ok {
		return &slowedShim{slowed: s, shim: sh.scriptShim()}
	}
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

type slowedShim struct {
	*slowed
	shim *goShim
}

func (s *slowedShim) scriptShim() *goShim { return s.shim }

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
// steppers may be wrapped too; the shim is forwarded.
func FlattenBroadcasts(s Stepper) Stepper {
	if sh, ok := s.(shimHolder); ok {
		return flattenShim{flatten{s}, sh.scriptShim()}
	}
	return flatten{s}
}

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

type flattenShim struct {
	flatten
	shim *goShim
}

func (f flattenShim) scriptShim() *goShim { return f.shim }

// goShim runs a Script in its own goroutine and adapts the channel handshake
// to the Stepper interface. The goroutine is started lazily on the first
// Step, so a process that crashes before ever running costs nothing.
type goShim struct {
	script   Script
	toEngine chan yieldMsg
	resume   chan resumeMsg
	done     chan struct{}
	started  bool
}

func newGoShim(s Script) *goShim {
	return &goShim{
		script:   s,
		toEngine: make(chan yieldMsg),
		resume:   make(chan resumeMsg),
		done:     make(chan struct{}),
	}
}

// Step implements Stepper: hand control to the script goroutine until it
// yields. A script panic is re-raised on the engine's stack (after the
// goroutine has fully unwound) so both substrates share one failure path.
func (sh *goShim) Step(p *Proc) Yield {
	if !sh.started {
		sh.started = true
		go sh.run(p)
	}
	sh.resume <- resumeMsg{}
	y := <-sh.toEngine
	switch y.kind {
	case yieldAction:
		return Yield{Kind: YieldAction, Action: y.action}
	case yieldSleep:
		return Yield{Kind: YieldSleep, Until: y.until}
	case yieldPanic:
		<-sh.done
		panic(y.panicVal)
	default:
		return Yield{Kind: YieldHalt}
	}
}

// run is the goroutine body wrapping the script.
func (sh *goShim) run(p *Proc) {
	defer close(sh.done)
	defer func() {
		if r := recover(); r != nil {
			// Surface script panics to the engine as fatal errors rather
			// than deadlocking the lock-step handshake.
			sh.toEngine <- yieldMsg{kind: yieldPanic, panicVal: r}
		}
	}()
	sig := <-sh.resume
	if sig.kill {
		return
	}
	sh.script(p)
	sh.toEngine <- yieldMsg{kind: yieldHalt}
}

// kill releases the script goroutine on crash or host shutdown. Safe to
// call whether the goroutine is blocked awaiting resumption, mid-yield,
// never started, or already exited (a returned/halted/panicked script; the
// engine never kills those, but an external host's Release tears every
// process down the same way).
func (sh *goShim) kill() {
	if !sh.started {
		return
	}
	select {
	case sh.resume <- resumeMsg{kill: true}:
		<-sh.done
	case y := <-sh.toEngine:
		// The script yielded while we were shutting down.
		if y.kind != yieldHalt && y.kind != yieldPanic {
			sh.resume <- resumeMsg{kill: true}
		}
		<-sh.done
	case <-sh.done:
		// The goroutine already unwound on its own.
	}
}
