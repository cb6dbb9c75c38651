package core

import (
	"repro/internal/group"
	"repro/internal/view"
)

// COrdinary is Protocol C's ordinary message: it reports one unit of (real
// or fault-detection) work and carries the sender's entire view. Value
// optionally piggybacks the general's value for the §5 Byzantine agreement
// reduction, which reads it through its tap.
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
	// ReportEvery controls how many units of level-0 work are performed
	// between reports to G1. 1 (the default) is the paper's Protocol C with
	// n + O(t log t) messages; ⌈n/t⌉ is the Corollary 3.9 variant with
	// O(t log t) messages at the cost of a larger K.
	ReportEvery int
	// PiggybackSend, when non-nil, supplies the value attached to every
	// ordinary message the process with the given engine PID sends (§5
	// agreement reduction).
	PiggybackSend func(pid int) any
}

// cState is the shared immutable context of a Protocol C run.
type cState struct {
	cfg   CConfig
	as    assignment
	lv    group.Levels
	ix    *view.Index
	tm    cTimeouts
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
	lv := group.NewLevels(cfg.T)
	return &cState{
		cfg:   cfg,
		as:    as,
		lv:    lv,
		ix:    view.NewIndex(lv),
		tm:    newCTimeouts(cfg.N, cfg.T, every),
		every: every,
	}, nil
}
