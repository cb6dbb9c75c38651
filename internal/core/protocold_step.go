package core

import (
	"fmt"

	"repro/internal/sim"
)

// dMachine is process j of Protocol D (paper §4): work phases splitting the
// outstanding units S evenly over the processes believed correct, T,
// alternate with agreement phases on (S, T) — the EBARound D shares with
// the §4 dynamic-work variant, with S its one payload set, merged by
// intersection. If more than the revert factor's share of a phase's
// processes die, the survivors revert to Protocol A (an embedded aMachine)
// for the remaining work. Failure-free cost: n/t + 2 rounds and < 2t²
// messages.
//
// The hot path allocates nothing: views are published from the round's
// arena, the work phase walks its slice of S in place (Select, then Next),
// and every broadcast is one engine record. The builder carves the
// machines and their rounds from slabs (see slab.go).
type dMachine struct {
	EBARound // S is Set(0)
	st       *dState
	state    int // dPhaseTop, dWork, dAgreeBegin, dAgreeCollect, dAgreeDone, dRevert

	// Work phase cursors: this process performs S's members of rank
	// lo..hi-1 (first is the one of rank lo, next the one of rank k; S does
	// not change until the phase's dAgreeBegin), then idles while k <
	// lo+chunk, so every process spends ⌈|S|/|T|⌉ rounds in the phase.
	lo, hi, chunk, k int
	first, next      int

	tPrevCount int // |T| at the start of the agreement, for the revert check

	rev *aMachine
}

const (
	dPhaseTop = iota
	dWork
	dAgreeBegin
	dAgreeCollect
	dAgreeDone
	dRevert
)

// Step implements sim.Stepper.
func (m *dMachine) Step(p *sim.Proc) sim.Yield {
	s := m.Set(0)
	for {
		switch m.state {
		case dPhaseTop:
			if s.Count() == 0 {
				return haltYield()
			}
			// ---- Work phase: the members of T split S evenly by rank. ----
			m.lo, m.hi, m.chunk = m.Share(s.Count())
			m.k = m.lo
			m.first = s.Select(m.lo)
			m.next = m.first
			m.state = dWork

		case dWork:
			if m.k < m.hi {
				u := m.next
				m.k++
				if m.k < m.hi {
					m.next = s.Next(u + 1)
				}
				return workYield(u)
			}
			if m.k < m.lo+m.chunk {
				m.k++
				return idleYield()
			}
			m.state = dAgreeBegin

		case dAgreeBegin:
			for k, u := m.lo, m.first; k < m.hi; k++ {
				s.Remove(u)
				u = s.Next(u + 1)
			}
			m.tPrevCount = m.t.Count()
			// ---- Agreement phase. ----
			m.Begin()
			m.state = dAgreeCollect
			return m.bcastYield(p, false)

		case dAgreeCollect:
			m.collect(p)
			if m.Close() {
				m.state = dAgreeDone
				return m.bcastYield(p, true)
			}
			return m.bcastYield(p, false)

		case dAgreeDone:
			m.Adopt()
			s = m.Set(0)
			// ---- Revert check (Theorem 4.1 part 2). ----
			if !m.st.cfg.DisableRevert && float64(m.tPrevCount) > m.st.factor*float64(m.t.Count()) {
				workers := m.t.Members()
				remaining := s.Members()
				pos := m.t.RankOf(m.j)
				sub := ABConfig{
					N:          len(remaining),
					T:          len(workers),
					Assign:     Assignment{Workers: workers, Units: remaining},
					StartRound: p.Now(),
				}
				ab, err := newABState(sub)
				if err != nil {
					// Unreachable: sub is well-formed by construction.
					panic(fmt.Sprintf("core: protocol D revert: %v", err))
				}
				rev := newAMachine(ab, pos)
				m.rev = &rev
				m.state = dRevert
				continue
			}
			m.state = dPhaseTop

		case dRevert:
			return m.rev.Step(p)
		}
	}
}

// bcastYield broadcasts the round's frozen view in a DView box.
func (m *dMachine) bcastYield(p *sim.Proc, done bool) sim.Yield {
	v := Box(&m.arena.views)
	phase, t, sets := m.Publish()
	*v = DView{Phase: phase, S: sets[0], T: t, Done: done}
	return m.Broadcast(p, v)
}

// collect opens an agreement round and files the DViews delivered.
func (m *dMachine) collect(p *sim.Proc) {
	m.Open()
	for _, msg := range p.Drain() {
		if v, ok := msg.Payload.(*DView); ok {
			m.Take(msg.From, v.Phase, v.Done, v.T, &[maxEBASets][]uint64{v.S})
		}
	}
}

// ProtocolDSteppers builds the per-process steppers of a standalone
// Protocol D run over engine PIDs 0..T-1.
func ProtocolDSteppers(cfg DConfig) (func(id int) sim.Stepper, error) {
	st, err := newDState(cfg)
	if err != nil {
		return nil, err
	}
	machines := newMachineSlab[dMachine](cfg.T)
	// S is 1-based over units: slot 0 unused.
	rounds := NewEBABuilder(cfg.T, EBASet{Size: cfg.N + 1, Intersect: true})
	return func(id int) sim.Stepper {
		m := machines.take()
		*m = dMachine{EBARound: rounds.Round(id), st: st, state: dPhaseTop}
		m.Set(0).Remove(0)
		return m
	}, nil
}

// ProtocolDProcs builds a standalone Protocol D run on steppers.
func ProtocolDProcs(cfg DConfig) (Procs, error) {
	st, err := ProtocolDSteppers(cfg)
	return Procs{Steppers: st}, err
}
