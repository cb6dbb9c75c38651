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

// Scripts builds the per-process scripts of a dynamic-work run.
func Scripts(cfg Config) (func(id int) sim.Script, error) {
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
	return func(j int) sim.Script {
		return func(p *sim.Proc) {
			runSite(p, cfg, arrivals, j)
		}
	}, nil
}

// runSite is one process of the dynamic variant.
func runSite(p *sim.Proc, cfg Config, arrivals map[int]map[int][]int, j int) {
	known := bitset.New(cfg.Units+1, false)
	done := bitset.New(cfg.Units+1, false)
	t := bitset.New(cfg.T, true)
	buf := make(map[int][]view)
	for phase := 1; phase <= cfg.Phases; phase++ {
		// New work arrives at this site.
		for _, u := range arrivals[phase][j] {
			known.Add(u)
		}
		// Agreement on (known, done, T).
		known, done, t = agree(p, cfg, j, phase, known, done, t, phase > 1, buf)
		if !t.Has(j) {
			panic(fmt.Sprintf("dynamic: correct process %d dropped from T", j))
		}
		// Work period: split the agreed outstanding units by rank.
		outstanding := known.Clone()
		outstanding.Subtract(done.Words())
		units := outstanding.Members()
		chunk := 0
		if len(units) > 0 {
			chunk = (len(units) + t.Count() - 1) / t.Count()
		}
		rank := t.RankOf(j)
		lo := min(rank*chunk, len(units))
		hi := min(lo+chunk, len(units))
		for k := lo; k < hi; k++ {
			p.StepWork(units[k])
			done.Add(units[k])
		}
		for k := hi - lo; k < chunk; k++ {
			p.StepIdle()
		}
	}
}

type view struct {
	View
	sender int
}

// agree mirrors Protocol D's EBA-style phase, with union merges over all
// three sets.
func agree(p *sim.Proc, cfg Config, j, phase int, known, done, t *bitset.Set, grace bool, buf map[int][]view) (*bitset.Set, *bitset.Set, *bitset.Set) {
	u := t.Clone()
	tNew := bitset.New(cfg.T, false)
	tNew.Add(j)
	kCur, dCur := known.Clone(), done.Clone()
	ctr := 1
	if grace {
		ctr = 0
	}
	bcast(p, cfg, j, phase, u, kCur, dCur, tNew, false)
	for {
		views := collect(p, phase, buf)
		uPrev := u.Clone()
		heard := make(map[int]bool, len(views))
		decided := false
		for _, v := range views {
			heard[v.sender] = true
			if v.Dec {
				kCur, dCur, tNew = bitset.From(v.Known, cfg.Units+1), bitset.From(v.Done, cfg.Units+1), bitset.From(v.T, cfg.T)
				decided = true
			} else if !decided {
				kCur.Union(v.Known)
				dCur.Union(v.Done)
				tNew.Union(v.T)
			}
		}
		if !decided {
			for _, i := range uPrev.Members() {
				if i != j && !heard[i] && ctr >= 1 {
					u.Remove(i)
				}
			}
			if u.Equal(uPrev) && ctr >= 1 {
				decided = true
			}
		}
		if decided {
			bcast(p, cfg, j, phase, u, kCur, dCur, tNew, true)
			return kCur, dCur, tNew
		}
		ctr++
		bcast(p, cfg, j, phase, u, kCur, dCur, tNew, false)
	}
}

// bcast sends the (known, done, T) view to every other member of u as one
// broadcast record; the word slices are copy-on-write shared snapshots, so
// all recipients read the same frozen words.
func bcast(p *sim.Proc, cfg Config, j, phase int, u, known, done, t *bitset.Set, dec bool) {
	v := View{
		Phase: phase,
		Known: known.Shared(), Done: done.Shared(), T: t.Shared(),
		Dec: dec,
	}
	p.StepBroadcast(u.Members(), v)
}

func collect(p *sim.Proc, phase int, buf map[int][]view) []view {
	views := buf[phase]
	delete(buf, phase)
	for _, m := range p.WaitUntil(p.Now()) {
		v, ok := m.Payload.(View)
		if !ok {
			continue
		}
		switch {
		case v.Phase == phase:
			views = append(views, view{View: v, sender: m.From})
		case v.Phase > phase:
			buf[v.Phase] = append(buf[v.Phase], view{View: v, sender: m.From})
		}
	}
	return views
}
