package core

import (
	"fmt"
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
