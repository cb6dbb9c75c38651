package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// DView is Protocol D's agreement broadcast "(j, S, T, done)": the sender's
// outstanding-work set S (indexed by unit, 1-based), its set T of processes
// it currently believes correct, and whether it has decided. The sets travel
// in bitset wire form (64-bit words). Phase tags keep messages of adjacent
// phases apart (processes may be skewed by one round).
type DView struct {
	Phase int
	S     []uint64
	T     []uint64
	Done  bool
}

// Kind implements sim.Kinder.
func (DView) Kind() string { return "d-view" }

// DConfig configures a run of Protocol D.
type DConfig struct {
	// N is the number of work units, T the number of processes.
	N, T int
	// RevertFactor is the paper's "half" in "if more than half the processes
	// thought correct at the beginning of the phase are discovered to have
	// failed, revert to Protocol A": revert when |T'| > RevertFactor·|T|.
	// 0 means the paper's 2. (The paper remarks any factor works, trading
	// the work bound n/(1−α) against revert frequency — the X3 ablation.)
	RevertFactor float64
	// DisableRevert runs the phase loop without the Protocol A fallback
	// (used by ablations; the paper shows work can then grow to
	// Ω(n·log f/log log f)).
	DisableRevert bool
}

// dState is the shared context of a Protocol D run.
type dState struct {
	cfg    DConfig
	factor float64
}

func newDState(cfg DConfig) (*dState, error) {
	if cfg.T <= 0 {
		return nil, fmt.Errorf("core: t = %d, need at least one process", cfg.T)
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("core: n = %d, need non-negative work", cfg.N)
	}
	f := cfg.RevertFactor
	if f == 0 {
		f = 2
	}
	if f < 1 {
		return nil, fmt.Errorf("core: revert factor %v < 1", f)
	}
	return &dState{cfg: cfg, factor: f}, nil
}

// RunProtocolD executes process j of Protocol D.
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
// rounds and < 2t² messages.
func RunProtocolD(p *sim.Proc, cfg DConfig, j int) error {
	st, err := newDState(cfg)
	if err != nil {
		return err
	}
	if j < 0 || j >= cfg.T {
		return fmt.Errorf("core: position %d out of range [0,%d)", j, cfg.T)
	}
	// S is 1-based over units: slot 0 unused.
	s := bitset.New(cfg.N+1, true)
	s.Remove(0)
	t := bitset.New(cfg.T, true)
	buf := make(map[int][]taggedView)
	phase := 0
	for s.Count() > 0 {
		phase++
		// ---- Work phase: the members of T split S evenly by rank. ----
		chunk := (s.Count() + t.Count() - 1) / t.Count()
		rank := t.RankOf(j)
		units := s.Members()
		lo := min(rank*chunk, len(units))
		hi := min(lo+chunk, len(units))
		for k := lo; k < hi; k++ {
			p.StepWork(units[k])
		}
		// Pad so every process spends ⌈|S|/|T|⌉ rounds in the phase.
		for k := hi - lo; k < chunk; k++ {
			p.StepIdle()
		}
		for k := lo; k < hi; k++ {
			s.Remove(units[k])
		}
		tPrev := t
		// ---- Agreement phase. ----
		s, t = st.agree(p, j, phase, s, t, phase > 1, buf)
		if !t.Has(j) {
			panic(fmt.Sprintf("core: protocol D: correct process %d dropped from T", j))
		}
		// ---- Revert check (Theorem 4.1 part 2). ----
		if !st.cfg.DisableRevert && float64(tPrev.Count()) > st.factor*float64(t.Count()) {
			workers := t.Members()
			remaining := s.Members()
			pos := t.RankOf(j)
			sub := ABConfig{
				N:          len(remaining),
				T:          len(workers),
				Assign:     Assignment{Workers: workers, Units: remaining},
				StartRound: p.Now(),
			}
			if err := RunProtocolA(p, sub, pos); err != nil {
				return fmt.Errorf("core: protocol D revert: %w", err)
			}
			return nil
		}
	}
	return nil
}

// agree is the paper's Agree procedure (Fig. 4), restructured for the
// delivery-at-r+1 model: the broadcast of iteration k is processed by peers
// at iteration k+1, so each iteration occupies exactly one round and the
// failure-free phase completes in two rounds.
func (st *dState) agree(p *sim.Proc, j, phase int, s, t *bitset.Set, grace bool, buf map[int][]taggedView) (*bitset.Set, *bitset.Set) {
	u := t.Clone()                      // who we still listen to (paper's U)
	tNew := bitset.New(st.cfg.T, false) // paper's T, rebuilt from who we hear
	tNew.Add(j)
	sCur := s.Clone()
	ctr := 1
	if grace {
		ctr = 0
	}
	st.bcast(p, j, phase, u, sCur, tNew, false)
	for {
		views := st.collect(p, phase, buf)
		uPrev := u.Clone()
		heard := make(map[int]bool, len(views))
		done := false
		for _, v := range views {
			heard[v.sender] = true
			if v.Done {
				sCur = bitset.From(v.S, st.cfg.N+1)
				tNew = bitset.From(v.T, st.cfg.T)
				done = true
			} else if !done {
				sCur.Intersect(v.S)
				tNew.Union(v.T)
			}
		}
		if !done {
			for _, i := range uPrev.Members() {
				if i != j && !heard[i] && ctr >= 1 {
					u.Remove(i)
				}
			}
			if u.Equal(uPrev) && ctr >= 1 {
				done = true
			}
		}
		if done {
			st.bcast(p, j, phase, u, sCur, tNew, true)
			return sCur, tNew
		}
		ctr++
		st.bcast(p, j, phase, u, sCur, tNew, false)
	}
}

// bcast sends the current view to every other member of u as one broadcast
// record (one round; an empty recipient list still consumes the round to
// keep processes aligned). The view's word slices are copy-on-write shared
// snapshots of the sender's sets; the payload is a pointer, like the
// stepper substrate's arena-backed views, so the two substrates' messages
// interoperate in mixed runs.
func (st *dState) bcast(p *sim.Proc, j, phase int, u, s, t *bitset.Set, done bool) {
	v := &DView{Phase: phase, S: s.Shared(), T: t.Shared(), Done: done}
	p.StepBroadcast(u.Members(), v)
}

// taggedView is a received view, held by reference (a sent DView is never
// mutated), with its sender.
type taggedView struct {
	*DView
	sender int
}

// ProtocolDScripts builds the per-process scripts of a standalone Protocol D
// run over engine PIDs 0..T-1.
func ProtocolDScripts(cfg DConfig) (func(id int) sim.Script, error) {
	if _, err := newDState(cfg); err != nil {
		return nil, err
	}
	return func(id int) sim.Script {
		return func(p *sim.Proc) {
			_ = RunProtocolD(p, cfg, id)
		}
	}, nil
}

// collect drains the messages delivered this round, returning the current
// phase's views in sender order; views for future phases are buffered,
// stale ones dropped.
func (st *dState) collect(p *sim.Proc, phase int, buf map[int][]taggedView) []taggedView {
	views := buf[phase]
	delete(buf, phase)
	msgs := p.WaitUntil(p.Now())
	for _, m := range msgs {
		v, ok := m.Payload.(*DView)
		if !ok {
			continue
		}
		switch {
		case v.Phase == phase:
			views = append(views, taggedView{DView: v, sender: m.From})
		case v.Phase > phase:
			buf[v.Phase] = append(buf[v.Phase], taggedView{DView: v, sender: m.From})
		}
	}
	return views
}
