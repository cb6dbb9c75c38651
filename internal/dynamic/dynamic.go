// Package dynamic implements the paper's §4 remark (the variant IBM
// patented, [9] in the paper): "a more realistic scenario, where work is
// continually coming in to different sites of the system, and is not
// initially common knowledge... the idea is to run Eventual Byzantine
// Agreement periodically."
//
// Each unit of work arrives at a single site. Every period, the processes
// run an agreement phase that merges what arrived and what was completed —
// views carry (known, done, T) and are merged by union — then split the
// agreed outstanding units evenly, as in Protocol D, and work for one
// period.
//
// Guarantee (the natural adaptation of the paper's): every unit that
// arrives at a process that survives its next agreement phase is performed,
// provided at least one process survives overall. A unit whose only knower
// crashes before telling anyone is irrecoverably lost, exactly like a
// message to the outside world from a crashed process.
package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// Injection delivers one unit of work to one site just before the given
// phase (1-based).
type Injection struct {
	Phase   int
	Process int
	Unit    int
}

// View is the dynamic variant's agreement broadcast: known and done unit
// sets, the live set T, and the decided flag — Protocol D's (S, T, done)
// with S split into its two halves, merged by union instead of
// intersection.
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

// Steppers builds the per-process Steppers of a dynamic-work run.
func Steppers(cfg Config) (func(id int) sim.Stepper, error) {
	if cfg.T <= 0 || cfg.Units < 0 || cfg.Phases <= 0 {
		return nil, fmt.Errorf("dynamic: invalid config %+v", cfg)
	}
	arrivals := make(map[int]map[int][]int) // phase -> process -> units
	for _, inj := range cfg.Injections {
		if inj.Phase < 1 || inj.Phase > cfg.Phases {
			return nil, fmt.Errorf("dynamic: injection %+v outside phases 1..%d", inj, cfg.Phases)
		}
		if inj.Process < 0 || inj.Process >= cfg.T {
			return nil, fmt.Errorf("dynamic: injection %+v to unknown process", inj)
		}
		if inj.Unit < 1 || inj.Unit > cfg.Units {
			return nil, fmt.Errorf("dynamic: injection %+v unit out of range", inj)
		}
		if arrivals[inj.Phase] == nil {
			arrivals[inj.Phase] = make(map[int][]int)
		}
		arrivals[inj.Phase][inj.Process] = append(arrivals[inj.Phase][inj.Process], inj.Unit)
	}
	for _, byProc := range arrivals {
		for _, units := range byProc {
			sort.Ints(units)
		}
	}
	return func(j int) sim.Stepper {
		return &site{
			cfg: cfg, arrivals: arrivals, j: j,
			known: bitset.New(cfg.Units+1, false),
			done:  bitset.New(cfg.Units+1, false),
			t:     bitset.New(cfg.T, true),
			buf:   make(map[int][]view),
		}
	}, nil
}

// site is one process of the dynamic variant. Each phase it takes in its
// arrivals, runs the agreement (one broadcast per round until it decides),
// then works through its share of the agreed outstanding units, padded with
// idle rounds to the common share length.
type site struct {
	cfg      Config
	arrivals map[int]map[int][]int
	j        int

	phase               int
	known, done, t      *bitset.Set // agreed at the end of the last phase
	buf                 map[int][]view
	st                  int         // siteWork, siteAgree or sitePeriod
	u, tNew, kCur, dCur *bitset.Set // the agreement in flight
	ctr                 int

	units []int // the agreed outstanding units of the work period
	k, hi int   // next and end index of this site's share of units
	idle  int   // idle rounds owed after the share
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
		u := m.units[m.k]
		m.k++
		m.done.Add(u)
		return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{WorkUnit: u}}
	}
	if m.idle > 0 {
		m.idle--
		return sim.Yield{Kind: sim.YieldAction}
	}
	return m.nextPhase(p)
}

// nextPhase takes in the next phase's arrivals and opens its agreement on
// (known, done, T), mirroring Protocol D's EBA-style phase with union
// merges over all three sets; after the last phase the site halts.
func (m *site) nextPhase(p *sim.Proc) sim.Yield {
	if m.phase++; m.phase > m.cfg.Phases {
		return sim.Yield{Kind: sim.YieldHalt}
	}
	for _, u := range m.arrivals[m.phase][m.j] {
		m.known.Add(u)
	}
	m.u = m.t.Clone()
	m.tNew = bitset.New(m.cfg.T, false)
	m.tNew.Add(m.j)
	m.kCur, m.dCur = m.known.Clone(), m.done.Clone()
	m.ctr = 1
	if m.phase > 1 {
		m.ctr = 0 // grace round
	}
	m.st = siteAgree
	return m.bcast(p, false)
}

// agree runs one agreement round on the views heard since the last
// broadcast, and broadcasts the site's merged view or its decision.
func (m *site) agree(p *sim.Proc) sim.Yield {
	views := m.collect(p)
	uPrev := m.u.Clone()
	heard := make(map[int]bool, len(views))
	decided := false
	for _, v := range views {
		heard[v.sender] = true
		if v.Dec {
			m.kCur, m.dCur, m.tNew = bitset.From(v.Known, m.cfg.Units+1), bitset.From(v.Done, m.cfg.Units+1), bitset.From(v.T, m.cfg.T)
			decided = true
		} else if !decided {
			m.kCur.Union(v.Known)
			m.dCur.Union(v.Done)
			m.tNew.Union(v.T)
		}
	}
	if !decided {
		for _, i := range uPrev.Members() {
			if i != m.j && !heard[i] && m.ctr >= 1 {
				m.u.Remove(i)
			}
		}
		if m.u.Equal(uPrev) && m.ctr >= 1 {
			decided = true
		}
	}
	if decided {
		m.st = sitePeriod
		return m.bcast(p, true)
	}
	m.ctr++
	return m.bcast(p, false)
}

// period adopts the decided sets and splits the agreed outstanding units
// by rank for the work period.
func (m *site) period() {
	m.known, m.done, m.t = m.kCur, m.dCur, m.tNew
	if !m.t.Has(m.j) {
		panic(fmt.Sprintf("dynamic: correct process %d dropped from T", m.j))
	}
	outstanding := m.known.Clone()
	outstanding.Subtract(m.done.Words())
	m.units = outstanding.Members()
	chunk := 0
	if len(m.units) > 0 {
		chunk = (len(m.units) + m.t.Count() - 1) / m.t.Count()
	}
	lo := min(m.t.RankOf(m.j)*chunk, len(m.units))
	m.k, m.hi = lo, min(lo+chunk, len(m.units))
	m.idle = chunk - (m.hi - lo)
	m.st = siteWork
}

type view struct {
	View
	sender int
}

// bcast sends the (known, done, T) view to every other member of u as one
// broadcast record; the word slices are copy-on-write shared snapshots, so
// all recipients read the same frozen words.
func (m *site) bcast(p *sim.Proc, dec bool) sim.Yield {
	v := View{
		Phase: m.phase,
		Known: m.kCur.Shared(), Done: m.dCur.Shared(), T: m.tNew.Shared(),
		Dec: dec,
	}
	return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Broadcast: p.BroadcastTo(m.u.Members(), v)}}
}

// collect drains the mail: views of this phase are returned, later phases'
// are kept for them, earlier phases' are dropped.
func (m *site) collect(p *sim.Proc) []view {
	views := m.buf[m.phase]
	delete(m.buf, m.phase)
	for _, msg := range p.Drain() {
		v, ok := msg.Payload.(View)
		if !ok {
			continue
		}
		switch {
		case v.Phase == m.phase:
			views = append(views, view{View: v, sender: msg.From})
		case v.Phase > m.phase:
			m.buf[v.Phase] = append(m.buf[v.Phase], view{View: v, sender: msg.From})
		}
	}
	return views
}
