package sim

// Proc is the process-side context of one process: the handle its Stepper
// talks to. It carries only process-local state — the body, its mail,
// scratch buffers, label and crash checkpoint; everything a plane books
// about the process (status, sleep, counters) lives in the round core. All
// exported methods except those documented otherwise must be called only
// from the process's own Step method.
type Proc struct {
	id      int
	host    Host // the execution plane that owns this process (see host.go)
	stepper Stepper

	label string
	tap   func(Message)

	// mail is where delivered-but-undrained messages wait: the round core's
	// staging mailbox for engine procs, own for hosted ones (whose host
	// pushes mail in with Deliver).
	mail *mailbox
	own  mailbox
	// pidScratch backs BroadcastTo's filtered recipient lists, so
	// per-checkpoint broadcasts reuse one buffer per process.
	pidScratch []int

	// Crash recovery: snap holds the checkpoint taken at crash time for a
	// possible restart (Verdict.RestartAt / Restarter). Only Recoverable
	// steppers can be checkpointed.
	snap    any
	hasSnap bool
}

// SnapshotState checkpoints the process body for a possible restart,
// reporting whether the stepper supports it (is Recoverable).
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

// HasMail reports whether delivered messages are waiting to be drained.
func (p *Proc) HasMail() bool { return len(p.mail.inbox) > 0 }

// Drain returns and clears the messages delivered so far, in deterministic
// (delivery round, sender) order. A process that returns a YieldSleep calls
// it on the Step that wakes it. The returned slice is backed by a recycled
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
