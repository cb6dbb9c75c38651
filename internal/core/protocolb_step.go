package core

import (
	"repro/internal/sim"
)

// bMachine is logical position j of Protocol B: passive waiting on relative
// deadlines DDB(j, i), the preactive go-ahead probing phase, and DoWork via
// dwMachine.
//
// Protocol B (paper §2.3) keeps Protocol A's DoWork but replaces the
// absolute deadlines DD(j) with relative ones: after hearing its last
// ordinary message from process i at round r′, process j becomes *preactive*
// at round r′ + DDB(j, i) — by which point every process in earlier groups
// has provably retired — and then polls the not-yet-excluded lower-numbered
// processes of its own group with go-ahead messages, spaced PTO rounds
// apart. A living recipient becomes active immediately (and its first
// broadcast reaches the poller, sending it back to sleep); if nobody
// answers, j becomes active itself. This cuts the running time from
// O(nt + t²) to O(n + t).
type bMachine struct {
	ab *abState
	j  int
	st int // bPassive, bProbe, bProbeSent, bProbeWait, bWork

	last     ordMsg // always valid: seeded with the fictitious round-0 message
	lastRecv int64

	iPrime        int
	probeDeadline int64
	probe         [1]sim.Send // scratch backing the go-ahead poll action

	workLast    ordMsg // what DoWork resumes from (never the seed message)
	hasWorkLast bool
	dwReady     bool
	dw          dwMachine
}

// setWorkLast records what DoWork resumes from, stripping the fictitious
// seed message: DoWork must not run takeover chores for a message that was
// never actually sent.
func (m *bMachine) setWorkLast() {
	m.workLast = m.last
	m.hasWorkLast = m.last.c != 0 || m.last.full
}

func (m *bMachine) workLastPtr() *ordMsg {
	if !m.hasWorkLast {
		return nil
	}
	return &m.workLast
}

const (
	bPassive = iota
	bProbe
	bProbeSent
	bProbeWait
	bWork
)

func newBMachine(ab *abState, j int) bMachine {
	m := bMachine{ab: ab, j: j}
	if j == 0 {
		m.st = bWork
		return m
	}
	// The fictitious round-0 ordinary message "(0, g)" from process 0
	// (paper §2.3): it exists only to seed the deadline computation.
	m.last = ordMsg{from: 0, sentAt: ab.cfg.StartRound - 1, c: 0}
	m.lastRecv = ab.cfg.StartRound
	m.st = bPassive
	return m
}

// Step implements sim.Stepper.
func (m *bMachine) Step(p *sim.Proc) sim.Yield {
	for {
		switch m.st {
		case bWork:
			if !m.dwReady {
				m.dw.init(m.ab, p, m.j, m.workLastPtr())
				m.dwReady = true
			}
			y := m.dw.step(p)
			if y.Kind == sim.YieldHalt {
				p.SetActive(false)
			}
			return y

		case bPassive:
			deadline := m.lastRecv + m.ab.tm.ddb(m.j, m.last.from)
			if shouldSleep(p, deadline) {
				return sleepYield(deadline)
			}
			ord, hasOrd, goAhead, term := m.ab.scanInbox(p.Drain(), m.j, &m.last)
			if term {
				return haltYield()
			}
			if hasOrd {
				m.last = ord
				m.lastRecv = ord.sentAt + 1
			}
			if goAhead {
				// Become active right away if work remains (paper: "if j
				// receives a go ahead message at round r and c < t"). A
				// concurrently delivered ordinary message has already updated
				// `last`, so the takeover resumes from the freshest knowledge.
				if m.last.c < m.ab.tm.p {
					m.setWorkLast()
					m.st = bWork
				}
				continue
			}
			if hasOrd || p.Now() < deadline {
				continue
			}
			// Go preactive: probe the lower-numbered, not-yet-cleared
			// processes of j's own group.
			gj := m.ab.q.GroupOf(m.j)
			if m.ab.q.GroupOf(m.last.from) != gj {
				lo, _ := m.ab.q.Bounds(gj)
				m.iPrime = lo
			} else {
				m.iPrime = m.last.from + 1
			}
			m.st = bProbe

		case bProbe:
			if m.iPrime >= m.j {
				m.setWorkLast()
				m.st = bWork
				continue
			}
			m.st = bProbeSent
			m.probe[0] = sim.Send{To: m.ab.as.pid(m.iPrime), Payload: GoAhead{}}
			return sendYield(m.probe[:])

		case bProbeSent:
			// PTO rounds between probes, measured from the send round (the
			// probe committed at Now()-1).
			m.probeDeadline = p.Now() - 1 + m.ab.tm.pto()
			m.st = bProbeWait

		case bProbeWait:
			if shouldSleep(p, m.probeDeadline) {
				return sleepYield(m.probeDeadline)
			}
			ord, hasOrd, goAhead, term := m.ab.scanInbox(p.Drain(), m.j, &m.last)
			if term {
				return haltYield()
			}
			if hasOrd {
				m.last = ord
				m.lastRecv = ord.sentAt + 1
			}
			if goAhead {
				if m.last.c < m.ab.tm.p {
					m.setWorkLast()
					m.st = bWork
				} else {
					m.st = bPassive
				}
				continue
			}
			if hasOrd {
				// The probed process (or another) woke up: back to passive.
				m.st = bPassive
				continue
			}
			if p.Now() >= m.probeDeadline {
				m.iPrime++
				m.st = bProbe
				continue
			}
			// Foreign payloads (e.g. application messages produced by the
			// work itself) may wake the wait early; keep waiting out the
			// full probe interval.
		}
	}
}

// ProtocolBSteppers builds the per-process steppers of a Protocol B run
// over engine PIDs 0..T-1.
func ProtocolBSteppers(cfg ABConfig) (func(id int) sim.Stepper, error) {
	ab, err := newABState(cfg)
	if err != nil {
		return nil, err
	}
	// Fill the shared PID cache now: steppers of one engine run on a single
	// goroutine, but one Procs value may back several engines concurrently.
	ab.pidsByGroup()
	slab := newMachineSlab[bMachine](cfg.T)
	return func(id int) sim.Stepper {
		m := slab.take()
		*m = newBMachine(ab, id)
		return m
	}, nil
}

// ProtocolBProcs builds a standalone Protocol B run on steppers.
func ProtocolBProcs(cfg ABConfig) (Procs, error) {
	st, err := ProtocolBSteppers(cfg)
	return Procs{Steppers: st}, err
}

// scanInbox classifies a batch of delivered messages: the newest ordinary
// message later than last (valid only when hasNew), whether a go-ahead
// arrived, and whether a termination indication arrived. Results travel by
// value — scanning is the per-message hot path.
func (ab *abState) scanInbox(msgs []sim.Message, j int, last *ordMsg) (newest ordMsg, hasNew, goAhead, term bool) {
	for i := range msgs {
		om, hasOrd, ga, ok := ab.parse(msgs[i])
		if !ok {
			continue
		}
		if ga {
			goAhead = true
			continue
		}
		if !hasOrd {
			continue
		}
		if ab.isTermination(&om, j) {
			return ordMsg{}, false, false, true
		}
		if newer(last, &om) && (!hasNew || newer(&newest, &om)) {
			newest, hasNew = om, true
		}
	}
	return newest, hasNew, goAhead, false
}
