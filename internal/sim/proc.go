package sim

import "fmt"

// Script is the body of a simulated process. It runs as a coroutine resumed
// once per event and interacts with the engine exclusively through the
// methods of its Proc: each blocking call (Step*, WaitUntil, Halt) hands one
// Yield back to whoever stepped the process. A script that returns is
// treated as if it called Halt.
type Script func(p *Proc)

// Proc is the process-side context of one process: the handle its body
// (Script or Stepper) talks to. It carries only process-local state — the
// body, its mail, scratch buffers, label and crash checkpoint; everything a
// plane books about the process (status, sleep, counters) lives in the round
// core. All exported methods except those documented otherwise must be
// called only from the process's own script or Step method.
type Proc struct {
	id      int
	host    Host // the execution plane that owns this process (see host.go)
	stepper Stepper
	// shim is the script shim this process has stepped, and co the yield of
	// its coroutine; both nil until a ScriptStepper's first Step binds them.
	shim *coShim
	co   func(Yield) bool

	label string
	tap   func(Message)

	// mail is where delivered-but-undrained messages wait: the round core's
	// staging mailbox for engine procs, own for hosted ones (whose host
	// pushes mail in with Deliver).
	mail *mailbox
	own  mailbox
	// sendScratch backs Broadcast so per-checkpoint broadcasts reuse one
	// buffer per process; pidScratch likewise backs BroadcastTo's filtered
	// recipient lists.
	sendScratch []Send
	pidScratch  []int

	// Crash recovery: snap holds the checkpoint taken at crash time for a
	// possible restart (Verdict.RestartAt / Restarter). Only Recoverable
	// steppers can be checkpointed.
	snap    any
	hasSnap bool
}

// SnapshotState checkpoints the process body for a possible restart,
// reporting whether the stepper supports it (shim-backed scripts do not).
// Hosts call it at crash time when a restart may follow (Body.Checkpoint),
// between the process's steps. An existing checkpoint is left in place: the
// first crash wins until a restart consumes it.
func (p *Proc) SnapshotState() bool {
	if p.hasSnap {
		return true
	}
	r, ok := p.stepper.(Recoverable)
	if !ok {
		return false
	}
	p.snap = r.Snapshot()
	p.hasSnap = true
	return true
}

// RestoreState rewinds the process body to its crash checkpoint, consuming
// it — a later crash of the restarted process takes a fresh checkpoint;
// false means no checkpoint was held. Hosts call it when reviving a crashed
// process (Body.Restore).
func (p *Proc) RestoreState() bool {
	if !p.hasSnap {
		return false
	}
	p.stepper.(Recoverable).Restore(p.snap)
	p.snap = nil
	p.hasSnap = false
	return true
}

// rearm readies a (possibly recycled) Proc for a new run under the given
// host, keeping the scratch buffer capacities it accumulated. mail is the
// mailbox the host stages this process's deliveries in; nil means the
// process keeps its own and the host Delivers into it.
func (p *Proc) rearm(h Host, mail *mailbox, id int, st Stepper) {
	p.id = id
	p.host = h
	p.stepper = st
	p.shim = nil
	p.co = nil
	p.label = ""
	p.tap = nil
	p.own.inbox = p.own.inbox[:0]
	p.own.spare = p.own.spare[:0]
	p.mail = mail
	if mail == nil {
		p.mail = &p.own
	}
	p.snap = nil
	p.hasSnap = false
}

// ID returns the process identifier (0-based).
func (p *Proc) ID() int { return p.id }

// N returns the total number of processes in the system.
func (p *Proc) N() int { return p.host.NumProcs() }

// Units returns the total number of work units.
func (p *Proc) Units() int { return p.host.NumUnits() }

// Now returns the current round number.
func (p *Proc) Now() int64 { return p.host.Round() }

// SetActive flags this process as "the active process" for the at-most-one-
// active invariant check. Protocols in which a single process works at a time
// call SetActive(true) on takeover and the host verifies uniqueness. The
// flag is the host's to keep: it clears it when the process retires.
func (p *Proc) SetActive(v bool) { p.host.SetActive(p.id, v) }

// SetLabel attaches a short human-readable state label, used in traces.
func (p *Proc) SetLabel(l string) { p.label = l }

// SetTap registers an observer invoked for every message this process
// drains, before the draining code sees it. Layered protocols use it to
// watch for messages that the inner protocol would otherwise discard (e.g.
// the agreement reduction adopting values carried alongside checkpoint
// traffic). Must be called from the process's own body.
func (p *Proc) SetTap(f func(Message)) { p.tap = f }

// StepWork performs one unit of work and ends the round.
func (p *Proc) StepWork(unit int) {
	if unit <= 0 {
		panic(fmt.Sprintf("sim: proc %d: StepWork with non-positive unit %d", p.id, unit))
	}
	p.yield(Yield{Kind: YieldAction, Action: Action{WorkUnit: unit}})
}

// StepSend transmits the given messages and ends the round.
func (p *Proc) StepSend(sends ...Send) {
	p.yield(Yield{Kind: YieldAction, Action: Action{Sends: sends}})
}

// StepWorkSend performs one unit of work, transmits messages, and ends the
// round. (The model allows one unit of work plus one round of communication
// per time unit.)
func (p *Proc) StepWorkSend(unit int, sends ...Send) {
	if unit <= 0 {
		panic(fmt.Sprintf("sim: proc %d: StepWorkSend with non-positive unit %d", p.id, unit))
	}
	p.yield(Yield{Kind: YieldAction, Action: Action{WorkUnit: unit, Sends: sends}})
}

// StepIdle consumes one round doing nothing. Protocols use it to pad phases
// to a common length.
func (p *Proc) StepIdle() {
	p.yield(Yield{Kind: YieldAction})
}

// Broadcast builds one Send per recipient, skipping the sender itself. The
// returned slice is backed by a per-process scratch buffer: it is valid until
// this process's next Broadcast call, which is always after the engine has
// consumed the previous batch (sends are copied into messages when the
// action commits).
//
// Prefer BroadcastTo / StepBroadcast: a Broadcast-valued action costs the
// engine one shared record instead of one boxed Message per recipient.
func (p *Proc) Broadcast(to []int, payload any) []Send {
	sends := p.sendScratch[:0]
	for _, dst := range to {
		if dst == p.id {
			continue
		}
		sends = append(sends, Send{To: dst, Payload: payload})
	}
	p.sendScratch = sends
	return sends
}

// BroadcastTo builds the broadcast half of an Action: payload addressed to
// every PID in to except the caller itself. The recipient list is backed by
// a per-process scratch buffer, which is safe to hand to the engine: the
// committed record is delivered before this process can step (and so reuse
// the scratch) again. Valid until the process's next BroadcastTo call.
func (p *Proc) BroadcastTo(to []int, payload any) Broadcast {
	rcpts := p.pidScratch[:0]
	for _, dst := range to {
		if dst == p.id {
			continue
		}
		rcpts = append(rcpts, dst)
	}
	p.pidScratch = rcpts
	if len(rcpts) == 0 {
		return Broadcast{}
	}
	return Broadcast{To: rcpts, Payload: payload}
}

// StepBroadcast transmits payload to every PID in to except the caller and
// ends the round. An empty recipient list still consumes the round (like an
// empty StepSend), keeping lock-step protocols aligned.
func (p *Proc) StepBroadcast(to []int, payload any) {
	p.yield(Yield{Kind: YieldAction, Action: Action{Broadcast: p.BroadcastTo(to, payload)}})
}

// WaitUntil blocks until at least one message has been delivered or the
// current round reaches deadline, whichever happens first, and returns all
// delivered messages (possibly none, on timeout). It consumes no rounds by
// itself: a sleeping process is free. Messages are returned in deterministic
// (delivery round, sender) order. Script-side only; steppers return a
// YieldSleep and call Drain on their next Step instead.
func (p *Proc) WaitUntil(deadline int64) []Message {
	if len(p.mail.inbox) > 0 || p.host.Round() >= deadline {
		return p.drain()
	}
	p.yield(Yield{Kind: YieldSleep, Until: deadline})
	return p.drain()
}

// Halt terminates the process voluntarily. It never returns: the script
// unwinds, running its deferred calls. Script-side only; steppers return a
// YieldHalt instead.
func (p *Proc) Halt() { p.yield(Yield{Kind: YieldHalt}) }

// HasMail reports whether delivered messages are waiting to be drained.
func (p *Proc) HasMail() bool { return len(p.mail.inbox) > 0 }

// Drain returns and clears the messages delivered so far, in deterministic
// (delivery round, sender) order. It is the stepper-side counterpart of the
// receive half of WaitUntil. The returned slice is backed by a recycled
// buffer valid until the drain after next.
func (p *Proc) Drain() []Message { return p.drain() }

func (p *Proc) drain() []Message {
	msgs := p.mail.take()
	if p.tap != nil {
		for i := range msgs {
			p.tap(msgs[i])
		}
	}
	return msgs
}

// yield hands y to whoever stepped the script and blocks until the next
// Step. A stopped coroutine (halt, crash, shutdown) resumes it with false,
// and the script unwinds instead of returning.
func (p *Proc) yield(y Yield) {
	if p.co == nil {
		panic(fmt.Sprintf("sim: proc %d: Step*/WaitUntil/Halt called from a Stepper; return a Yield instead", p.id))
	}
	if !p.co(y) {
		panic(unwind{})
	}
}
