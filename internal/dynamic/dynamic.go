// Package dynamic implements the paper's §4 remark (the variant IBM
// patented, [9] in the paper): "a more realistic scenario, where work is
// continually coming in to different sites of the system, and is not
// initially common knowledge... the idea is to run Eventual Byzantine
// Agreement periodically."
//
// Each unit of work arrives at a single site. Every period, the processes
// run Protocol D's agreement round (core.EBARound) on what arrived and what
// was completed — views carry (known, done, T), all merged by union — then
// split the agreed outstanding units evenly, as in Protocol D, and work for
// one period.
//
// Guarantee (the natural adaptation of the paper's): every unit that
// arrives at a process that survives its next agreement phase is performed,
// provided at least one process survives overall. A unit whose only knower
// crashes before telling anyone is irrecoverably lost, exactly like a
// message to the outside world from a crashed process.
package dynamic

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/sim"
)

// Injection delivers one unit of work to one site just before the given
// phase (1-based).
type Injection struct {
	Phase   int
	Process int
	Unit    int
}

// View is the dynamic variant's agreement broadcast: Protocol D's (S, T,
// done) with S split into known and done, merged by union. It travels as a
// *View boxed from the sender's slab, its words frozen in its arena.
type View struct {
	Phase int
	Known []uint64
	Done  []uint64
	T     []uint64
	Dec   bool
}

// Kind implements sim.Kinder.
func (View) Kind() string { return "dyn-view" }

// Config parameterises a dynamic-work run.
type Config struct {
	// T is the number of processes; Units the total number of unit IDs that
	// will ever arrive (for accounting).
	T, Units int
	// Injections is the arrival schedule.
	Injections []Injection
	// Phases is how many inject-agree-work periods to run. All units must
	// arrive before the final phase.
	Phases int
}

// The payload sets of a site's agreement round.
const (
	known = iota
	done
)

// Steppers builds the per-process Steppers of a dynamic-work run.
func Steppers(cfg Config) (func(id int) sim.Stepper, error) {
	if cfg.T <= 0 || cfg.Units < 0 || cfg.Phases <= 0 {
		return nil, fmt.Errorf("dynamic: invalid config %+v", cfg)
	}
	for _, inj := range cfg.Injections {
		if inj.Phase < 1 || inj.Phase > cfg.Phases || inj.Process < 0 || inj.Process >= cfg.T ||
			inj.Unit < 1 || inj.Unit > cfg.Units {
			return nil, fmt.Errorf("dynamic: injection %+v outside phases 1..%d, processes 0..%d or units 1..%d",
				inj, cfg.Phases, cfg.T-1, cfg.Units)
		}
	}
	// arrivals[process*Phases+phase-1] lists the units arriving there in
	// increasing order, carved from one slice.
	cell := func(inj Injection) int { return inj.Process*cfg.Phases + inj.Phase - 1 }
	sorted := slices.Clone(cfg.Injections)
	slices.SortFunc(sorted, func(a, b Injection) int { return cmp.Or(cell(a)-cell(b), a.Unit-b.Unit) })
	units := make([]int, len(sorted))
	arrivals := make([][]int, cfg.T*cfg.Phases)
	for i, inj := range sorted {
		units[i] = inj.Unit
		c := cell(inj)
		arrivals[c] = units[i-len(arrivals[c]) : i+1] // a cell's units are contiguous
	}
	rounds := core.NewEBABuilder(cfg.T, core.EBASet{Size: cfg.Units + 1}, core.EBASet{Size: cfg.Units + 1})
	return func(j int) sim.Stepper {
		b := &siteBox{out: bitset.Over(make([]uint64, (cfg.Units+64)/64), cfg.Units+1, false)}
		b.site = site{EBARound: rounds.Round(j), arrivals: arrivals[j*cfg.Phases : (j+1)*cfg.Phases],
			views: &b.views, out: &b.out}
		return &b.site
	}, nil
}

// site is one process of the dynamic variant. Each phase it takes in its
// arrivals, runs the agreement round, then works through its share of the
// agreed outstanding units, padded with idle rounds to the common share
// length.
type site struct {
	core.EBARound // on known, done and T

	arrivals [][]int // this and later phases' arrivals; shared, read-only
	views    *[]View // the view boxes' slab, outside the struct
	st       int     // siteWork, siteAgree or sitePeriod

	// The work period: out is the agreed known − done, whose members of
	// rank k..hi-1 this site performs (next is the one of rank k) before
	// idling idle rounds.
	out               *bitset.Set
	k, hi, next, idle int
}

// siteBox keeps a site's view slab and outstanding set beside it, so a
// checkpoint's struct copy shares the slab.
type siteBox struct {
	site
	views []View
	out   bitset.Set
}

const (
	siteWork   = iota // working through the share (empty before phase 1)
	siteAgree         // the last round broadcast an undecided view
	sitePeriod        // the last round broadcast the decision
)

// Step implements sim.Stepper.
func (m *site) Step(p *sim.Proc) sim.Yield {
	switch m.st {
	case siteAgree:
		return m.agree(p)
	case sitePeriod:
		m.period()
	}
	if m.k < m.hi {
		u := m.next
		if m.k++; m.k < m.hi {
			m.next = m.out.Next(u + 1)
		}
		m.Set(done).Add(u)
		return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{WorkUnit: u}}
	}
	if m.idle > 0 {
		m.idle--
		return sim.Yield{Kind: sim.YieldAction}
	}
	return m.nextPhase(p)
}

// nextPhase takes in the next phase's arrivals and opens its agreement;
// after the last phase the site halts.
func (m *site) nextPhase(p *sim.Proc) sim.Yield {
	if len(m.arrivals) == 0 {
		return sim.Yield{Kind: sim.YieldHalt}
	}
	for _, u := range m.arrivals[0] {
		m.Set(known).Add(u)
	}
	m.arrivals = m.arrivals[1:]
	m.Begin()
	m.st = siteAgree
	return m.bcast(p, false)
}

// agree runs one agreement round on the views heard since the last
// broadcast, and broadcasts the site's merged view or its decision.
func (m *site) agree(p *sim.Proc) sim.Yield {
	m.Open()
	for _, msg := range p.Drain() {
		if v, ok := msg.Payload.(*View); ok {
			m.Take(msg.From, v.Phase, v.Dec, v.T, &[2][]uint64{v.Known, v.Done})
		}
	}
	if m.Close() {
		m.st = sitePeriod
		return m.bcast(p, true)
	}
	return m.bcast(p, false)
}

// period adopts the decided sets and splits the agreed outstanding units
// by rank for the work period.
func (m *site) period() {
	m.Adopt()
	m.out.CopyFrom(m.Set(known))
	m.out.Subtract(m.Set(done).Words())
	lo, hi, chunk := m.Share(m.out.Count())
	m.k, m.hi, m.next, m.idle = lo, hi, m.out.Select(lo), chunk-(hi-lo)
	m.st = siteWork
}

// bcast broadcasts the round's view, frozen, in a box from the site's slab.
func (m *site) bcast(p *sim.Proc, dec bool) sim.Yield {
	v := core.Box(m.views)
	phase, t, sets := m.Publish()
	*v = View{Phase: phase, Known: sets[known], Done: sets[done], T: t, Dec: dec}
	return m.Broadcast(p, v)
}

// Snapshot implements sim.Recoverable: the round's checkpoint plus the
// outstanding set; the arrivals and the view slab are shared.
func (m *site) Snapshot() any {
	cp := *m
	cp.EBARound = m.Checkpoint()
	cp.out = m.out.Clone()
	return &cp
}

// Restore implements sim.Recoverable, in place and without mutating snap.
func (m *site) Restore(snap any) {
	sn := snap.(*site)
	round, out := m.EBARound, m.out
	*m = *sn
	m.EBARound, m.out = round, out
	m.RestoreFrom(&sn.EBARound)
	m.out.CopyFrom(sn.out)
}
