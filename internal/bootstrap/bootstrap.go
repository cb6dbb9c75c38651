// Package bootstrap removes the paper's initial-common-knowledge assumption
// (§1): "if even one process knows about this work, then it can act as a
// general, run Byzantine agreement on the pool of work using one of the
// three algorithms, and then the actual work is performed by running the
// same algorithm a second time on the real work. If n, the amount of actual
// work, is Ω(t), then the overall cost at most doubles."
//
// Stage 1 runs the §5 agreement reduction with the pool description as the
// value; stage 2 runs the same work protocol over the agreed pool, starting
// at the predetermined round by which stage 1 has terminated.
package bootstrap

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/sim"
)

// PoolMsg informs a process of the work pool (stage 1's "value").
type PoolMsg struct {
	Units []int
}

// Kind implements sim.Kinder.
func (PoolMsg) Kind() string { return "pool" }

// Config parameterises a bootstrapped run.
type Config struct {
	// Pool is the work only the general initially knows: engine unit IDs.
	Pool []int
	// T is the number of processes; F bounds failures (senders 0..F run the
	// pool agreement).
	T, F int
	// Protocol selects the work protocol for both stages: agreement.UseA or
	// agreement.UseB (the default). Protocol C would work identically, but
	// its exponential stage boundary makes composed runs impractical to
	// simulate at interesting sizes.
	Protocol agreement.WorkProtocol
}

// Result reports a bootstrapped run.
type Result struct {
	Sim sim.Result
	// Stage1End is the predetermined round at which stage 2 began.
	Stage1End int64
	// PoolAgreed reports whether at least one survivor knew the pool (when
	// false, the general crashed before informing anyone, and no work was
	// required).
	PoolAgreed bool
}

// instance is the state one bootstrapped run shares among its processes.
type instance struct {
	pool      []int
	stage1End int64
	rcpts     []int   // the general's stage-1 recipients, senders 1..F
	pools     [][]int // per-process learned pool
	agreed    bool
	stage2    func(id int) sim.Stepper
}

// Run executes the two-stage bootstrapped protocol.
func Run(cfg Config, opt core.RunOptions) (Result, error) {
	if cfg.T <= 0 {
		return Result{}, fmt.Errorf("bootstrap: t = %d", cfg.T)
	}
	if cfg.F < 0 || cfg.F >= cfg.T {
		return Result{}, fmt.Errorf("bootstrap: f = %d out of range [0,%d)", cfg.F, cfg.T)
	}
	n := len(cfg.Pool)
	senders := cfg.F + 1
	procs, bound := core.ProtocolBProcs, core.ProtocolBRoundBound
	switch cfg.Protocol {
	case 0, agreement.UseB:
	case agreement.UseA:
		procs, bound = core.ProtocolAProcs, core.ProtocolARoundBound
	default:
		return Result{}, fmt.Errorf("bootstrap: unsupported protocol %v", cfg.Protocol)
	}

	// Stage 1: the general informs the senders (round 0), the senders run
	// the work protocol where logical unit u means "send the pool to
	// process u-1"; it terminates by stage1End for every failure pattern.
	// The informs' engine unit IDs n+1..n+T never collide with the real
	// units in the completion accounting.
	in := &instance{pool: cfg.Pool, stage1End: 1 + bound(cfg.T, senders) + 1, pools: make([][]int, cfg.T)}
	for s := 1; s < senders; s++ {
		in.rcpts = append(in.rcpts, s)
	}
	stage1, err := core.SteppersFor(procs(core.ABConfig{
		N: cfg.T, T: senders,
		Assign:     core.Assignment{Units: stageOneUnits(cfg.T, n)},
		StartRound: 1,
	}))
	if err != nil {
		return Result{}, err
	}
	// Stage 2 runs the same protocol over the pool. Every process that
	// learned a pool learned this one: the general's is the only pool sent.
	in.stage2, err = core.SteppersFor(procs(core.ABConfig{
		N: n, T: cfg.T,
		Assign:     core.Assignment{Units: cfg.Pool},
		StartRound: in.stage1End,
	}))
	if err != nil {
		return Result{}, err
	}
	res, err := core.RunSteppers(n, cfg.T, func(id int) sim.Stepper {
		pr := &proc{in: in, id: id}
		if id < senders {
			pr.stage1 = stage1(id)
		}
		return pr
	}, opt)
	if err != nil {
		return Result{}, err
	}
	out := Result{Sim: res, Stage1End: in.stage1End, PoolAgreed: in.agreed}
	if in.agreed && res.Survivors > 0 && !res.Complete() {
		return out, fmt.Errorf("bootstrap: pool agreed and %d survivors but work incomplete", res.Survivors)
	}
	return out, nil
}

// proc is one process of the bootstrapped run. The general (process 0)
// first broadcasts the pool to the other senders; a sender then runs its
// stage-1 machine, where performing a unit also sends the sender's pool to
// the unit's process in the same round. Every process waits out stage 1's
// deadline, learning the pool from the informs it drains (via the tap),
// and then runs stage 2 on the pool if it learned one.
type proc struct {
	in      *instance
	id      int
	started bool
	waiting bool        // stage 1 is over for this process; waiting for stage1End
	stage1  sim.Stepper // nil for non-senders and once it halts
	stage2  sim.Stepper // nil until stage1End
	inform  [1]sim.Send // backs the inform attached to a stage-1 unit
}

func (pr *proc) learn(m sim.Message) {
	if pm, ok := m.Payload.(PoolMsg); ok {
		pr.in.pools[pr.id] = pm.Units
	}
}

// Step implements sim.Stepper.
func (pr *proc) Step(p *sim.Proc) sim.Yield {
	in := pr.in
	if !pr.started {
		pr.started = true
		p.SetTap(pr.learn)
		if pr.id == 0 {
			// Stage 1: one broadcast record on the engine's message plane.
			in.pools[0] = in.pool
			return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{
				Broadcast: p.BroadcastTo(in.rcpts, PoolMsg{Units: in.pool}),
			}}
		}
	}
	if pr.stage1 != nil {
		y := pr.stage1.Step(p)
		if y.Kind != sim.YieldHalt {
			if u := y.Action.WorkUnit; u > 0 {
				pr.inform[0] = sim.Send{To: u - len(in.pool) - 1, Payload: PoolMsg{Units: in.pools[pr.id]}}
				y.Action.Sends = pr.inform[:]
			}
			return y
		}
		pr.stage1 = nil
	}
	if pr.stage2 == nil {
		if pr.waiting || p.Now() < in.stage1End {
			pr.waiting = true
			p.Drain()
			if p.Now() < in.stage1End {
				return sim.Yield{Kind: sim.YieldSleep, Until: in.stage1End}
			}
		}
		if len(in.pools[pr.id]) == 0 {
			// The general crashed before any survivor learned the pool: no
			// process is obliged to (or can) do the work.
			return sim.Yield{Kind: sim.YieldHalt}
		}
		in.agreed = true
		pr.stage2 = in.stage2(pr.id)
	}
	return pr.stage2.Step(p)
}

// stageOneUnits allocates stage-1 unit IDs that cannot collide with real
// (stage-2) units: informs are "work" for accounting, but only real units
// count toward completion, so they map above the n real unit IDs.
func stageOneUnits(t, n int) []int {
	units := make([]int, t)
	for i := range units {
		units[i] = n + 1 + i
	}
	return units
}
