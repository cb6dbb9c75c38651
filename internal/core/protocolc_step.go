package core

import (
	"repro/internal/sim"
	"repro/internal/view"
)

// cMachine is logical position i of Protocol C: the passive deadline loop,
// then Fig. 3's active code — fault detection from the finest level down,
// polling group pointers, then real work with reports into G1.
//
// Protocol C (paper §3): at most one process is active; when the active
// process fails, the most knowledgeable process — the one with the highest
// reduced view — takes over, enforced by deadlines D(i, m) that shrink
// exponentially in the reduced view m. The active process performs fault
// detection as recursive work over a binary hierarchy of groups (polling
// "are you alive?" level by level) before doing real work, reporting every
// unit of work at level h−1 to its pointer at level h. The message total is
// n + O(t log t); the price is exponential worst-case (and typical) time.
type cMachine struct {
	st *cState
	i  int
	v  *view.View

	state int // cInit, cListen, cAfterAlive, cFDTop, cFDPointer, cPollSent, cPollWait, cFDAfterReport, cWorkTop, cWorkAfter

	deadline int64
	lastOrd  int64
	pollers  []int

	h, slot, target int
	pollDecideAt    int64

	sinceReport int

	send [1]sim.Send // scratch backing the poll and report actions
}

const (
	cInit = iota
	cListen
	cAfterAlive
	cFDTop
	cFDPointer
	cPollSent
	cPollWait
	cFDAfterReport
	cWorkTop
	cWorkAfter
)

func newCMachine(st *cState, i int) cMachine {
	return cMachine{st: st, i: i, v: view.New(st.ix, i, st.cfg.T, &st.snaps), state: cInit}
}

// Step implements sim.Stepper.
func (m *cMachine) Step(p *sim.Proc) sim.Yield {
	for {
		switch m.state {
		case cInit:
			if m.i == 0 {
				// "Initially process 0 is active."
				m.enterActive(p)
				continue
			}
			m.deadline = satAdd(m.st.cfg.StartRound, m.st.tm.deadline(m.i, 0))
			m.state = cListen

		case cListen:
			if shouldSleep(p, m.deadline) {
				return sleepYield(m.deadline)
			}
			msgs := p.Drain()
			m.pollers = m.pollers[:0]
			m.lastOrd = -1
			for _, msg := range msgs {
				switch pl := msg.Payload.(type) {
				case AreYouAlive:
					m.pollers = append(m.pollers, msg.From)
				case COrdinary:
					m.v.Merge(pl.View)
					if msg.SentAt+1 > m.lastOrd {
						m.lastOrd = msg.SentAt + 1
					}
				default:
					// Alive acks and foreign payloads are ignored while
					// inactive.
				}
			}
			m.state = cAfterAlive
			if len(m.pollers) > 0 {
				// One Alive payload to every poller: a single broadcast record.
				return broadcastYield(p, m.pollers, Alive{})
			}

		case cAfterAlive:
			if m.lastOrd >= 0 {
				m.deadline = satAdd(m.lastOrd, m.st.tm.deadline(m.i, m.v.Reduced()))
				m.state = cListen
				continue
			}
			if p.Now() >= m.deadline {
				m.enterActive(p)
				continue
			}
			m.state = cListen

		case cFDTop:
			if m.h < 1 {
				m.sinceReport = 0
				m.state = cWorkTop
				continue
			}
			gid, _ := m.st.lv.GroupOf(m.i, m.h)
			m.slot = m.st.ix.Slot(gid)
			m.state = cFDPointer

		case cFDPointer:
			target, ok := m.v.NormalizedPointer(m.slot, m.i)
			if !ok {
				// Every other group member is known retired; descend a level.
				m.h--
				m.state = cFDTop
				continue
			}
			m.target = target
			m.state = cPollSent
			return m.sendTo(target, AreYouAlive{})

		case cPollSent:
			// Poll committed at Now()-1; the ack can arrive at +2.
			m.pollDecideAt = p.Now() + 1
			m.state = cPollWait

		case cPollWait:
			if shouldSleep(p, m.pollDecideAt) {
				return sleepYield(m.pollDecideAt)
			}
			alive := false
			for _, msg := range p.Drain() {
				if _, ok := msg.Payload.(Alive); ok && msg.From == m.st.as.pid(m.target) {
					alive = true
					break
				}
			}
			if alive {
				// Found a living process; descend a level.
				m.h--
				m.state = cFDTop
				continue
			}
			if p.Now() < m.pollDecideAt {
				continue // woken early by unrelated mail; keep waiting
			}
			m.v.MarkFaulty(m.target)
			if m.h != m.st.lv.L {
				if y, ok := m.emitReport(p, m.h+1); ok {
					m.state = cFDAfterReport
					return y
				}
			}
			m.advancePointer()
			m.state = cFDPointer

		case cFDAfterReport:
			m.advancePointer()
			m.state = cFDPointer

		case cWorkTop:
			if m.v.WorkPoint() > m.st.cfg.N {
				p.SetActive(false)
				return haltYield()
			}
			u := m.v.WorkPoint()
			m.v.AdvanceWork(p.Now())
			m.sinceReport++
			m.state = cWorkAfter
			return workYield(m.st.as.unitID(u))

		case cWorkAfter:
			if m.sinceReport >= m.st.every || m.v.WorkPoint() > m.st.cfg.N {
				m.sinceReport = 0
				if y, ok := m.emitReport(p, 1); ok {
					m.state = cWorkTop
					return y
				}
			}
			m.state = cWorkTop
		}
	}
}

// enterActive begins Fig. 3's active code: fault detection from level log t
// down to level 1, then real work at level 0.
func (m *cMachine) enterActive(p *sim.Proc) {
	p.SetActive(true)
	m.h = m.st.lv.L
	m.state = cFDTop
}

// emitReport builds the ordinary message (a unit of level h−1 work plus the
// full view) to the current pointer of i's level-h group and advances that
// pointer. ok=false when the report is skipped (every other member of the
// group is known retired, or there is no level h, i.e. t = 1).
func (m *cMachine) emitReport(p *sim.Proc, h int) (sim.Yield, bool) {
	if h > m.st.lv.L {
		return sim.Yield{}, false
	}
	gid, _ := m.st.lv.GroupOf(m.i, h)
	slot := m.st.ix.Slot(gid)
	target, ok := m.v.NormalizedPointer(slot, m.i)
	if !ok {
		return sim.Yield{}, false
	}
	next, ok := m.v.Successor(slot, target, m.i)
	if !ok {
		next = target
	}
	m.v.SetPointer(slot, next, p.Now())
	msg := COrdinary{View: m.v.Snapshot()}
	if m.st.cfg.PiggybackSend != nil {
		msg.Value = m.st.cfg.PiggybackSend(p.ID())
	}
	return m.sendTo(target, msg), true
}

// sendTo yields the one-send action carrying payload to target, backed by
// the machine's own scratch: the core reads an action only while
// committing it, before the machine steps again.
func (m *cMachine) sendTo(target int, payload any) sim.Yield {
	m.send[0] = sim.Send{To: m.st.as.pid(target), Payload: payload}
	return sendYield(m.send[:])
}

func (m *cMachine) advancePointer() {
	if next, ok := m.v.Successor(m.slot, m.target, m.i); ok {
		m.v.AdvancePointer(m.slot, next)
	}
}

// protocolCSteppers builds the per-process steppers of a Protocol C run
// over engine PIDs 0..T-1.
func protocolCSteppers(cfg CConfig) (func(id int) sim.Stepper, error) {
	st, err := newCState(cfg)
	if err != nil {
		return nil, err
	}
	slab := newMachineSlab[cMachine](cfg.T)
	return func(id int) sim.Stepper {
		m := slab.take()
		*m = newCMachine(st, id)
		return m
	}, nil
}

// ProtocolCProcs builds a standalone Protocol C run on steppers.
func ProtocolCProcs(cfg CConfig) (Procs, error) {
	st, err := protocolCSteppers(cfg)
	return Procs{Steppers: st}, err
}
