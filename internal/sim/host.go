package sim

// This file is the substrate boundary between a process and whatever runs
// it. The Host interface abstracts the four things a process body actually
// needs from its runtime — the shape of the run, the current round, and
// active-flag bookkeeping — so that every execution plane drives the very
// same Stepper state machines through the very same Proc handle. The round
// core (round.go) is the Host of every process it books, on the engine and
// on internal/live's goroutine-per-process plane alike; a wire join, which
// hosts processes for a coordinator in another OS process, is another.

// Host is the execution plane a Proc belongs to.
type Host interface {
	// NumProcs returns t, the number of processes in the run.
	NumProcs() int
	// NumUnits returns n, the number of work units.
	NumUnits() int
	// Round returns the current round number.
	Round() int64
	// SetActive records pid's SetActive flag; the host checks the number of
	// flagged processes against the at-most-MaxActive invariant. It must be
	// safe for however the host schedules its processes: processes stepping
	// in parallel flag themselves concurrently.
	SetActive(pid int, v bool)
}

// NewHostedProc builds a Proc that is stepped outside the Engine: the handle
// that lets another execution plane run a Stepper unchanged. The Proc keeps
// its own inbox; between TryStep calls the plane may Deliver messages and
// read Label; everything else on the Proc belongs to the process body.
func NewHostedProc(h Host, id int, st Stepper) *Proc {
	p := &Proc{}
	p.rearm(h, nil, id, st)
	return p
}

// TryStep runs one Step of the process body on the caller's stack,
// converting a panic in the body into a returned value exactly as the
// Engine does, so external hosts share the simulator's failure path.
func (p *Proc) TryStep() (y Yield, panicVal any, panicked bool) {
	panicVal, panicked = stepProc(p, &y)
	return y, panicVal, panicked
}

// Deliver appends one message to the process's inbox. External hosts call it
// between steps — never while the process body runs — mirroring the
// engine's start-of-round delivery; the next Drain returns delivered
// messages in append order.
func (p *Proc) Deliver(m Message) { p.own.inbox = append(p.own.inbox, m) }

// Label returns the process's current state label (see SetLabel). External
// hosts read it between steps when building trace events.
func (p *Proc) Label() string { return p.label }

// DropMail discards the undrained inbox, keeping the buffer for reuse.
// External hosts call it when crashing a process, as the round core drops
// the mail it has staged, so a later restart cannot observe pre-crash mail.
func (p *Proc) DropMail() { p.own.inbox = p.own.inbox[:0] }

// Rehost readies a recycled Proc for a new run under the given host, keeping
// the inbox and scratch buffer capacities the process accumulated. Pooled
// hosts call it instead of NewHostedProc when reusing Procs across runs; a
// Proc must be Scrubbed (run over, worker gone) before it is rehosted.
func (p *Proc) Rehost(h Host, id int, st Stepper) { p.rearm(h, nil, id, st) }

// Scrub releases every reference a finished run parked in the process's
// recycled buffers (inbox, stepper, tap, checkpoint), so a Proc idling in a
// pool does not keep the run's payloads alive. The buffers
// themselves keep their capacity for the next run.
func (p *Proc) Scrub() {
	p.own.scrub()
	p.stepper = nil
	p.tap = nil
	p.snap = nil
	p.hasSnap = false
}
