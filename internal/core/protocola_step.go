package core

import (
	"repro/internal/sim"
)

// aMachine is logical position j of Protocol A: listen for ordinary
// messages until the absolute deadline DD(j), then take over via dwMachine.
// It is also Protocol D's revert target: a reverted dMachine returns its
// Step, halt included.
//
// Protocol A (paper §2.1): work is cut into P = t subchunks of ⌈n/t⌉ units;
// the single active process partial-checkpoints each completed subchunk to
// its own √t-group and full-checkpoints every chunk (√t subchunks) to all
// groups, checkpointing each group-notification back to its own group.
// Process j takes over at the absolute deadline DD(j) = j·(n + 3t), by which
// time all lower-numbered processes have provably retired.
type aMachine struct {
	ab       *abState
	j        int
	deadline int64
	last     ordMsg // valid only when hasLast
	hasLast  bool
	working  bool
	dwReady  bool
	dw       dwMachine
}

// lastPtr is the nil-able view of last that DoWork's takeover logic expects.
func (m *aMachine) lastPtr() *ordMsg {
	if !m.hasLast {
		return nil
	}
	return &m.last
}

func newAMachine(ab *abState, j int) aMachine {
	m := aMachine{ab: ab, j: j}
	if j == 0 {
		m.working = true
	} else {
		m.deadline = ab.cfg.StartRound + ab.tm.dd(j)
	}
	return m
}

// Step implements sim.Stepper.
func (m *aMachine) Step(p *sim.Proc) sim.Yield {
	for {
		if m.working {
			if !m.dwReady {
				m.dw.init(m.ab, p, m.j, m.lastPtr())
				m.dwReady = true
			}
			y := m.dw.step(p)
			if y.Kind == sim.YieldHalt {
				p.SetActive(false)
			}
			return y
		}
		if shouldSleep(p, m.deadline) {
			return sleepYield(m.deadline)
		}
		msgs := p.Drain()
		for i := range msgs {
			om, hasOrd, _, ok := m.ab.parse(msgs[i])
			if !ok || !hasOrd {
				continue
			}
			if m.ab.isTermination(&om, m.j) {
				return haltYield()
			}
			if newer(m.lastPtr(), &om) {
				m.last = om
				m.hasLast = true
			}
		}
		if p.Now() >= m.deadline {
			m.working = true
		}
	}
}

// protocolASteppers builds the per-process steppers of a Protocol A run
// over engine PIDs 0..T-1.
func protocolASteppers(cfg ABConfig) (func(id int) sim.Stepper, error) {
	ab, err := newABState(cfg)
	if err != nil {
		return nil, err
	}
	// Fill the shared PID cache now: steppers of one engine run on a single
	// goroutine, but one Procs value may back several engines concurrently.
	ab.pidsByGroup()
	slab := newMachineSlab[aMachine](cfg.T)
	return func(id int) sim.Stepper {
		m := slab.take()
		*m = newAMachine(ab, id)
		return m
	}, nil
}

// ProtocolAProcs builds a standalone Protocol A run on steppers.
func ProtocolAProcs(cfg ABConfig) (Procs, error) {
	st, err := protocolASteppers(cfg)
	return Procs{Steppers: st}, err
}
