package core

import (
	"fmt"

	"repro/internal/sim"
)

// bMachine is RunProtocolB as a state machine: passive waiting on relative
// deadlines DDB(j, i), the preactive go-ahead probing phase, and DoWork via
// dwMachine. Every wait site of the script maps to one waiting state here.
type bMachine struct {
	ab *abState
	j  int
	st int // bPassive, bProbe, bProbeSent, bProbeWait, bWork

	last     ordMsg // always valid: seeded with the fictitious round-0 message
	lastRecv int64

	iPrime        int
	probeDeadline int64
	probe         [1]sim.Send // scratch backing the go-ahead poll action

	workLast    ordMsg // what DoWork resumes from (realOrNil applied)
	hasWorkLast bool
	dwReady     bool
	dw          dwMachine
}

// setWorkLast records what DoWork resumes from, stripping the fictitious
// seed message like realOrNil.
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

func newBMachine(ab *abState, j int) *bMachine {
	m := &bMachine{ab: ab, j: j}
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

// ProtocolBSteppers builds the per-process steppers of a standalone
// Protocol B run over engine PIDs 0..T-1. A custom work executor runs only
// in ProtocolBScripts.
func ProtocolBSteppers(cfg ABConfig) (func(id int) sim.Stepper, error) {
	if cfg.Exec != nil {
		return nil, fmt.Errorf("core: protocol B steppers take no work executor; use ProtocolBScripts")
	}
	ab, err := newABState(cfg)
	if err != nil {
		return nil, err
	}
	// Fill the shared PID cache now: steppers of one engine run on a single
	// goroutine, but one Procs value may back several engines concurrently.
	ab.pidsByGroup()
	return func(id int) sim.Stepper {
		return newBMachine(ab, id)
	}, nil
}

// ProtocolBProcs builds a standalone Protocol B run on steppers.
func ProtocolBProcs(cfg ABConfig) (Procs, error) {
	st, err := ProtocolBSteppers(cfg)
	return Procs{Steppers: st}, err
}
