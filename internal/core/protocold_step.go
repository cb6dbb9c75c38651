package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// dMachine is process j of Protocol D: work phases splitting the
// outstanding units over the processes believed correct, agreement phases in
// the style of Eventual Byzantine Agreement, and the Protocol A revert
// (running an embedded aMachine over the survivors) when more than the
// revert factor's share of a phase's processes die.
//
// Protocol D (paper §4) alternates work phases — the outstanding units are
// split evenly over the processes believed correct — with agreement phases
// in the style of Eventual Byzantine Agreement: every process repeatedly
// broadcasts its view (S, T, done) until the set of processes heard from is
// stable across two consecutive rounds (after a one-round grace period in
// phases after the first, since processes may be skewed by one round), or it
// receives a decided view, which it adopts. If more than half of the
// processes alive at the start of a phase die during it, the survivors
// revert to Protocol A for the remaining work. Failure-free cost: n/t + 2
// rounds and < 2t² messages. The agreement phase is the paper's Agree
// (Fig. 4) restructured for the delivery-at-r+1 model: the broadcast of
// iteration k is processed by peers at iteration k+1, so each iteration
// occupies exactly one round and the failure-free phase completes in two.
//
// The machine is allocation-frugal on the hot path: the view sets it
// broadcasts are frozen arena snapshots (see viewArena) so the live sets
// are never pushed into copy-on-write mode, the work phase walks its slice
// of S in place (Select, then Next) instead of listing S, recipient lists
// and received views (held by reference) land in scratch buffers
// preallocated to their maximum size, and every broadcast is one engine
// record via the broadcast plane. Its build is frugal too: the builder
// carves the struct, its arena, its six sets and its scratch from per
// -builder slabs (dSlabs; see slab.go).
type dMachine struct {
	st    *dState
	j     int
	state int // dPhaseTop, dWork, dPad, dAgreeBegin, dAgreeCollect, dAgreeDone, dRevert

	phase int
	s, t  *bitset.Set
	buf   []taggedView // views received for later phases, in arrival order

	// Work phase cursors: this process performs S's members of rank
	// lo..hi-1, first is the one of rank lo, and next the one of rank k
	// (S does not change until the phase's dAgreeBegin).
	lo, hi, chunk int
	k, padK       int
	first, next   int

	// Agreement phase (the paper's Agree, Fig. 4). u, uPrev, tNew and sCur
	// are machine-owned sets reused across phases (sCur and tNew swap roles
	// with s and t when a phase decides); tPrevCount is |T| at the start of
	// the phase, kept for the revert check. heard, views and rcpts are
	// per-round scratch.
	u, uPrev, tNew, sCur *bitset.Set
	tPrevCount           int
	ctr                  int
	heard                []bool
	views                []taggedView
	rcpts                []int

	// arena backs the published view payloads; shared by reference with
	// crash-recovery clones (append-only, so that sharing is safe).
	arena *viewArena

	rev *aMachine
}

const (
	dPhaseTop = iota
	dWork
	dPad
	dAgreeBegin
	dAgreeCollect
	dAgreeDone
	dRevert
)

// dSlabs is a D builder's slabs: each machine's struct with its publish
// arena, its six sets with their words, and its per-round scratch.
type dSlabs struct {
	batcher
	boxes []dBox
	sets  []bitset.Set
	words []uint64
	heard []bool
	rcpts []int
	views []taggedView
}

// dBox keeps a machine's arena beside it but outside it, so a checkpoint's
// struct copy shares the arena instead of forking its slab headers.
type dBox struct {
	m     dMachine
	arena viewArena
}

// set carves a set over 0..size-1 and its words.
func (sl *dSlabs) set(size int, full bool) *bitset.Set {
	s := &carve(&sl.sets, 1)[0]
	*s = bitset.Over(carve(&sl.words, setWords(size)), size, full)
	return s
}

// machine carves process j's machine.
func (sl *dSlabs) machine(st *dState, j int) *dMachine {
	n, t := st.cfg.N+1, st.cfg.T // S is 1-based over units: slot 0 unused
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if k := sl.next(); k > 0 {
		sl.boxes = make([]dBox, k)
		sl.sets = make([]bitset.Set, 6*k)
		sl.words = make([]uint64, k*(2*setWords(n)+4*setWords(t)))
		sl.heard = make([]bool, k*t)
		sl.rcpts = make([]int, k*t)
		sl.views = make([]taggedView, k*t)
	}
	box := &carve(&sl.boxes, 1)[0]
	s := sl.set(n, true)
	s.Remove(0)
	box.m = dMachine{
		st:    st,
		j:     j,
		s:     s,
		t:     sl.set(t, true),
		u:     sl.set(t, false),
		uPrev: sl.set(t, false),
		tNew:  sl.set(t, false),
		sCur:  sl.set(n, false),
		heard: carve(&sl.heard, t),
		// Scratch at maximum size up front: append growth on these is pure
		// alloc churn (rcpts and views hold at most every peer).
		rcpts: carve(&sl.rcpts, t)[:0],
		views: carve(&sl.views, t)[:0],
		arena: &box.arena,
		state: dPhaseTop,
	}
	return &box.m
}

// Step implements sim.Stepper.
func (m *dMachine) Step(p *sim.Proc) sim.Yield {
	for {
		switch m.state {
		case dPhaseTop:
			if m.s.Count() == 0 {
				return haltYield()
			}
			m.phase++
			// ---- Work phase: the members of T split S evenly by rank. ----
			m.chunk = (m.s.Count() + m.t.Count() - 1) / m.t.Count()
			rank := m.t.RankOf(m.j)
			m.lo = min(rank*m.chunk, m.s.Count())
			m.hi = min(m.lo+m.chunk, m.s.Count())
			m.k = m.lo
			m.first = m.s.Select(m.lo)
			m.next = m.first
			m.state = dWork

		case dWork:
			if m.k < m.hi {
				u := m.next
				m.k++
				if m.k < m.hi {
					m.next = m.s.Next(u + 1)
				}
				return workYield(u)
			}
			m.padK = m.hi - m.lo
			m.state = dPad

		case dPad:
			// Pad so every process spends ⌈|S|/|T|⌉ rounds in the phase.
			if m.padK < m.chunk {
				m.padK++
				return idleYield()
			}
			m.state = dAgreeBegin

		case dAgreeBegin:
			for k, u := m.lo, m.first; k < m.hi; k++ {
				m.s.Remove(u)
				u = m.s.Next(u + 1)
			}
			m.tPrevCount = m.t.Count()
			// ---- Agreement phase. ----
			m.u.CopyFrom(m.t) // who we still listen to (paper's U)
			m.tNew.Clear()    // paper's T, rebuilt from who we hear
			m.tNew.Add(m.j)
			m.sCur.CopyFrom(m.s)
			m.ctr = 1
			if m.phase > 1 {
				m.ctr = 0 // one-round grace: processes may be skewed by one round
			}
			m.state = dAgreeCollect
			return m.bcastYield(p, false)

		case dAgreeCollect:
			views := m.collect(p)
			m.uPrev.CopyFrom(m.u)
			clear(m.heard)
			done := false
			for i := range views {
				v := &views[i]
				m.heard[v.sender] = true
				if v.Done {
					m.sCur.AdoptShared(v.S)
					m.tNew.AdoptShared(v.T)
					done = true
				} else if !done {
					m.sCur.Intersect(v.S)
					m.tNew.Union(v.T)
				}
			}
			if !done {
				if m.ctr >= 1 {
					m.uPrev.ForEach(func(i int) {
						if i != m.j && !m.heard[i] {
							m.u.Remove(i)
						}
					})
				}
				if m.u.Equal(m.uPrev) && m.ctr >= 1 {
					done = true
				}
			}
			if done {
				m.state = dAgreeDone
				return m.bcastYield(p, true)
			}
			m.ctr++
			return m.bcastYield(p, false)

		case dAgreeDone:
			// Adopt the decided view by swapping roles with the scratch sets;
			// sCur and tNew are rebuilt at the next dAgreeBegin.
			m.s, m.sCur = m.sCur, m.s
			m.t, m.tNew = m.tNew, m.t
			if !m.t.Has(m.j) {
				panic(fmt.Sprintf("core: protocol D: correct process %d dropped from T", m.j))
			}
			// ---- Revert check (Theorem 4.1 part 2). ----
			if !m.st.cfg.DisableRevert && float64(m.tPrevCount) > m.st.factor*float64(m.t.Count()) {
				workers := m.t.Members()
				remaining := m.s.Members()
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

// bcastYield sends the current view to every other member of u as one
// broadcast record (one round; an empty recipient list still consumes the
// round to keep processes aligned). The view's word slices are frozen
// arena snapshots — every recipient reads the same immutable words, and
// the sender's live sets stay privately mutable.
func (m *dMachine) bcastYield(p *sim.Proc, done bool) sim.Yield {
	v := m.arena.view()
	*v = DView{Phase: m.phase, S: m.arena.snap(m.sCur.Words()), T: m.arena.snap(m.tNew.Words()), Done: done}
	m.rcpts = m.u.AppendMembers(m.rcpts[:0])
	return broadcastYield(p, m.rcpts, v)
}

// collect drains the messages delivered this round, returning the current
// phase's views — buffered ones first, each group in arrival order — in a
// scratch buffer valid until the next collect; views for future phases are
// buffered, stale ones dropped.
func (m *dMachine) collect(p *sim.Proc) []taggedView {
	views := m.views[:0]
	later := m.buf[:0]
	for _, tv := range m.buf {
		switch {
		case tv.Phase == m.phase:
			views = append(views, tv)
		case tv.Phase > m.phase:
			later = append(later, tv)
		}
	}
	clear(m.buf[len(later):]) // drop the references filtered out
	for _, msg := range p.Drain() {
		v, ok := msg.Payload.(*DView)
		if !ok {
			continue
		}
		switch {
		case v.Phase == m.phase:
			views = append(views, taggedView{DView: v, sender: msg.From})
		case v.Phase > m.phase:
			later = append(later, taggedView{DView: v, sender: msg.From})
		}
	}
	m.buf, m.views = later, views
	return views
}

// ProtocolDSteppers builds the per-process steppers of a standalone
// Protocol D run over engine PIDs 0..T-1.
func ProtocolDSteppers(cfg DConfig) (func(id int) sim.Stepper, error) {
	st, err := newDState(cfg)
	if err != nil {
		return nil, err
	}
	slabs := &dSlabs{batcher: batcher{t: cfg.T}}
	return func(id int) sim.Stepper {
		return slabs.machine(st, id)
	}, nil
}

// ProtocolDProcs builds a standalone Protocol D run on steppers.
func ProtocolDProcs(cfg DConfig) (Procs, error) {
	st, err := ProtocolDSteppers(cfg)
	return Procs{Steppers: st}, err
}
