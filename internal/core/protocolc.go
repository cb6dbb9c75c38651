package core

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/sim"
	"repro/internal/view"
)

// COrdinary is Protocol C's ordinary message: it reports one unit of (real
// or fault-detection) work and carries the sender's entire view. Value
// optionally piggybacks the general's value for the §5 Byzantine agreement
// reduction.
type COrdinary struct {
	View  view.Snapshot
	Value any
}

// Kind implements sim.Kinder.
func (COrdinary) Kind() string { return "ordinary" }

// CConfig configures a run of Protocol C.
type CConfig struct {
	// N is the number of work units, T the number of processes.
	N, T int
	// Assign maps the run onto engine PIDs / unit IDs (identity when zero).
	Assign Assignment
	// StartRound is the round at which the run logically begins.
	StartRound int64
	// Exec performs one unit of work (default: sim.Proc.StepWork). Only the
	// script bodies run a custom one, for the layered protocols; the stepper
	// builders refuse it.
	Exec WorkExecutor
	// ReportEvery controls how many units of level-0 work are performed
	// between reports to G1. 1 (the default) is the paper's Protocol C with
	// n + O(t log t) messages; ⌈n/t⌉ is the Corollary 3.9 variant with
	// O(t log t) messages at the cost of a larger K.
	ReportEvery int
	// PiggybackSend, when non-nil, supplies a value attached to every
	// ordinary message; PiggybackRecv is invoked with the value of every
	// ordinary message received (§5 agreement reduction).
	PiggybackSend func() any
	PiggybackRecv func(any)
}

// cState is the shared immutable context of a Protocol C run.
type cState struct {
	cfg   CConfig
	as    assignment
	lv    group.Levels
	ix    *view.Index
	tm    cTimeouts
	ex    WorkExecutor
	every int
}

func newCState(cfg CConfig) (*cState, error) {
	as, err := resolveAssignment(cfg.N, cfg.T, cfg.Assign)
	if err != nil {
		return nil, err
	}
	every := cfg.ReportEvery
	if every <= 0 {
		every = 1
	}
	ex := cfg.Exec
	if ex == nil {
		ex = defaultExec
	}
	lv := group.NewLevels(cfg.T)
	return &cState{
		cfg:   cfg,
		as:    as,
		lv:    lv,
		ix:    view.NewIndex(lv),
		tm:    newCTimeouts(cfg.N, cfg.T, every),
		ex:    ex,
		every: every,
	}, nil
}

// RunProtocolC executes logical position i of Protocol C inside the given
// process script. It returns when the process terminates.
//
// Protocol C (paper §3): at most one process is active; when the active
// process fails, the most knowledgeable process — the one with the highest
// reduced view — takes over, enforced by deadlines D(i, m) that shrink
// exponentially in the reduced view m. The active process performs fault
// detection as recursive work over a binary hierarchy of groups (polling
// "are you alive?" level by level) before doing real work, reporting every
// unit of work at level h−1 to its pointer at level h. The message total is
// n + O(t log t); the price is exponential worst-case (and typical) time.
func RunProtocolC(p *sim.Proc, cfg CConfig, i int) error {
	st, err := newCState(cfg)
	if err != nil {
		return err
	}
	if i < 0 || i >= cfg.T {
		return fmt.Errorf("core: position %d out of range [0,%d)", i, cfg.T)
	}
	v := view.New(st.ix, i, cfg.T)
	if i == 0 {
		// "Initially process 0 is active."
		st.active(p, i, v)
		return nil
	}
	deadline := satAdd(cfg.StartRound, st.tm.deadline(i, 0))
	for {
		msgs := p.WaitUntil(deadline)
		var pollers []int
		var lastOrd int64 = -1
		for _, m := range msgs {
			switch pl := m.Payload.(type) {
			case AreYouAlive:
				pollers = append(pollers, m.From)
			case COrdinary:
				v.Merge(pl.View)
				if st.cfg.PiggybackRecv != nil && pl.Value != nil {
					st.cfg.PiggybackRecv(pl.Value)
				}
				if m.SentAt+1 > lastOrd {
					lastOrd = m.SentAt + 1
				}
			default:
				// Alive acks and foreign payloads are ignored while
				// inactive.
			}
		}
		if len(pollers) > 0 {
			// One Alive payload to every poller: a single broadcast record.
			p.StepBroadcast(pollers, Alive{})
		}
		if lastOrd >= 0 {
			deadline = satAdd(lastOrd, st.tm.deadline(i, v.Reduced()))
			continue
		}
		if p.Now() >= deadline {
			st.active(p, i, v)
			return nil
		}
	}
}

// active is Fig. 3's code for the active process: fault detection from the
// finest level (log t) down to level 1, then real work at level 0, then
// retirement.
func (st *cState) active(p *sim.Proc, i int, v *view.View) {
	p.SetActive(true)
	defer p.SetActive(false)
	for h := st.lv.L; h >= 1; h-- {
		gid, _ := st.lv.GroupOf(i, h)
		slot := st.ix.Slot(gid)
		for {
			target, ok := v.NormalizedPointer(slot, i)
			if !ok {
				break // every other group member is known retired
			}
			if st.poll(p, target) {
				break // found a living process; descend a level
			}
			v.MarkFaulty(target)
			if h != st.lv.L {
				st.report(p, i, v, h+1)
			}
			if next, ok := v.Successor(slot, target, i); ok {
				v.AdvancePointer(slot, next)
			}
		}
	}
	unitsSinceReport := 0
	for v.WorkPoint() <= st.cfg.N {
		u := v.WorkPoint()
		round := p.Now()
		st.ex(p, st.as.unitID(u))
		v.AdvanceWork(round)
		unitsSinceReport++
		if unitsSinceReport >= st.every || v.WorkPoint() > st.cfg.N {
			st.report(p, i, v, 1)
			unitsSinceReport = 0
		}
	}
}

// poll sends "are you alive?" to target and waits the following round for a
// response, consuming two rounds in total.
func (st *cState) poll(p *sim.Proc, target int) bool {
	p.StepSend(sim.Send{To: st.as.pid(target), Payload: AreYouAlive{}})
	decideAt := p.Now() + 1 // poll committed at Now()-1; ack can arrive at +2
	for {
		msgs := p.WaitUntil(decideAt)
		for _, m := range msgs {
			if _, ok := m.Payload.(Alive); ok && m.From == st.as.pid(target) {
				return true
			}
		}
		if p.Now() >= decideAt {
			return false
		}
	}
}

// report sends an ordinary message (a unit of level h−1 work plus the full
// view) to the current pointer of i's level-h group, then advances that
// pointer. Skipped when every other member of the group is known retired
// (or when there is no level h, i.e. t = 1).
func (st *cState) report(p *sim.Proc, i int, v *view.View, h int) {
	if h > st.lv.L {
		return
	}
	gid, _ := st.lv.GroupOf(i, h)
	slot := st.ix.Slot(gid)
	target, ok := v.NormalizedPointer(slot, i)
	if !ok {
		return
	}
	next, ok := v.Successor(slot, target, i)
	if !ok {
		next = target
	}
	v.SetPointer(slot, next, p.Now())
	msg := COrdinary{View: v.Snapshot()}
	if st.cfg.PiggybackSend != nil {
		msg.Value = st.cfg.PiggybackSend()
	}
	p.StepSend(sim.Send{To: st.as.pid(target), Payload: msg})
}

// ProtocolCScripts builds the per-process scripts of a standalone Protocol C
// run over engine PIDs 0..T-1.
func ProtocolCScripts(cfg CConfig) (func(id int) sim.Script, error) {
	if _, err := newCState(cfg); err != nil {
		return nil, err
	}
	return func(id int) sim.Script {
		return func(p *sim.Proc) {
			_ = RunProtocolC(p, cfg, id)
		}
	}, nil
}
