package core

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements the strategies the paper compares against:
//
//   - Trivial (§1): every process performs every unit; tn work, no messages.
//   - UniformCheckpoint (§2's opening argument): one active process
//     checkpoints to everyone after every ⌈n/k⌉ units. No k simultaneously
//     achieves O(n + t) work and O(t√t) messages — the tension that
//     motivates Protocol A's partial/full checkpoint split.
//     SingleCheckpoint (§1's "checkpoint after every unit", k = n) is the
//     special case with n + t − 1 work but ~tn messages.
//   - NaiveSpread (§3's opening argument): the active process reports each
//     unit u to process u mod t and the most knowledgeable process takes
//     over, with no fault detection; Θ(n + t²) effort in the worst case,
//     which Protocol C's recursive fault detection repairs.

// UniformDone is the uniform-checkpoint broadcast: units 1..U are done.
type UniformDone struct {
	U int
}

// Kind implements sim.Kinder.
func (UniformDone) Kind() string { return "uniform-done" }

// UniformConfig configures the uniform-checkpointing baseline.
type UniformConfig struct {
	// N is the number of work units, T the number of processes.
	N, T int
	// K is the number of checkpoints per full pass: the active process
	// broadcasts to everyone after every ⌈N/K⌉ units (and after unit N).
	K int
}

// UniformCheckpointScripts builds the uniform-checkpoint baseline.
func UniformCheckpointScripts(cfg UniformConfig) (func(id int) sim.Script, error) {
	if cfg.T <= 0 || cfg.N < 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("core: invalid uniform config n=%d t=%d k=%d", cfg.N, cfg.T, cfg.K)
	}
	every := subchunkWidth(cfg.N, cfg.K)
	// Active lifetime: n work rounds + ≤ k+1 broadcast rounds + slack.
	life := int64(cfg.N + cfg.K + 3)
	others := func(p *sim.Proc, j int) []int {
		out := make([]int, 0, cfg.T-1)
		for i := 0; i < cfg.T; i++ {
			if i != j {
				out = append(out, i)
			}
		}
		return out
	}
	active := func(p *sim.Proc, j, known int) {
		p.SetActive(true)
		defer p.SetActive(false)
		since := 0
		for u := known + 1; u <= cfg.N; u++ {
			p.StepWork(u)
			since++
			if since >= every || u == cfg.N {
				if rcpts := others(p, j); len(rcpts) > 0 {
					p.StepBroadcast(rcpts, UniformDone{U: u})
				}
				since = 0
			}
		}
	}
	return func(j int) sim.Script {
		return func(p *sim.Proc) {
			if j == 0 {
				active(p, j, 0)
				return
			}
			deadline := int64(j) * life
			known := 0
			for {
				msgs := p.WaitUntil(deadline)
				for _, m := range msgs {
					if d, ok := m.Payload.(UniformDone); ok && d.U > known {
						known = d.U
					}
				}
				if known >= cfg.N {
					return
				}
				if p.Now() >= deadline {
					active(p, j, known)
					return
				}
			}
		}
	}, nil
}

// NaiveReport is the naive §3 report: the sender has performed units
// 1..Units.
type NaiveReport struct {
	Units int
}

// Kind implements sim.Kinder.
func (NaiveReport) Kind() string { return "naive-report" }

// NaiveConfig configures the naive most-knowledgeable-spread baseline.
type NaiveConfig struct {
	N, T int
}

// naiveDeadline mirrors Protocol C's D(i, m) with reduced view = units known
// (the naive protocol has no failure knowledge) and K = the active lifetime
// bound 2n + 4.
func naiveDeadline(cfg NaiveConfig, i, m int) int64 {
	k := int64(2*cfg.N + 4)
	if m >= 1 {
		return satMul(k, satMul(int64(cfg.N-m+1), pow2(cfg.N-m)))
	}
	return satMul(k, satMul(int64(cfg.T-i), satMul(int64(cfg.N+1), pow2(cfg.N))))
}

// NaiveSpreadScripts builds the naive baseline: report unit u to process
// u mod t, most knowledgeable takes over, no fault detection. Reports sent
// to retired processes teach no one, which is exactly how the §3 cascade
// drives effort to Θ(n + t²).
func NaiveSpreadScripts(cfg NaiveConfig) (func(id int) sim.Script, error) {
	if cfg.T <= 0 || cfg.N < 0 {
		return nil, fmt.Errorf("core: invalid naive config n=%d t=%d", cfg.N, cfg.T)
	}
	active := func(p *sim.Proc, j, known int) {
		p.SetActive(true)
		defer p.SetActive(false)
		for u := known + 1; u <= cfg.N; u++ {
			p.StepWork(u)
			if tgt := u % cfg.T; tgt != j {
				p.StepSend(sim.Send{To: tgt, Payload: NaiveReport{Units: u}})
			}
		}
	}
	return func(j int) sim.Script {
		return func(p *sim.Proc) {
			if j == 0 {
				active(p, j, 0)
				return
			}
			known := 0
			deadline := naiveDeadline(cfg, j, 0)
			for {
				msgs := p.WaitUntil(deadline)
				upd := false
				var recv int64
				for _, m := range msgs {
					if r, ok := m.Payload.(NaiveReport); ok && r.Units > known {
						known = r.Units
						upd = true
						recv = m.SentAt + 1
					}
				}
				if upd {
					deadline = satAdd(recv, naiveDeadline(cfg, j, known))
					continue
				}
				if p.Now() >= deadline {
					active(p, j, known)
					return
				}
			}
		}
	}, nil
}

// NaiveCascadeAdversary reproduces §3's worst case for the naive protocol:
// processes t/2+1..t-1 crash at round 1 (so reports to them are wasted), and
// every active process crashes right after reporting its final unit — each
// successive taker then redoes units its predecessors already performed,
// driving Θ(t²) waste. Process 1 is spared so the run completes.
type NaiveCascadeAdversary struct {
	sim.NopAdversary
	n, t    int
	crashed int
	budget  int
}

var _ sim.Adversary = (*NaiveCascadeAdversary)(nil)

// NewNaiveCascadeAdversary builds the §3 worst-case adversary for an
// (n, t) instance.
func NewNaiveCascadeAdversary(n, t int) *NaiveCascadeAdversary {
	return &NaiveCascadeAdversary{n: n, t: t, budget: t - 1 - (t - 1 - t/2)}
}

// OnAction implements sim.Adversary: crash the sender of a final-unit report
// (keeping the work and delivering the report), except process 1. The scan
// and the Deliver mask cover the action's virtual send list, so the verdict
// is identical whether the report travels as a send or a broadcast.
func (a *NaiveCascadeAdversary) OnAction(_ int64, pid int, act sim.Action) sim.Verdict {
	if pid == 1 || a.crashed >= a.budget {
		return sim.Survive()
	}
	for i, n := 0, act.SendCount(); i < n; i++ {
		if r, ok := act.SendAt(i).Payload.(NaiveReport); ok && r.Units == a.n {
			deliver := make([]bool, n)
			deliver[i] = true
			a.crashed++
			return sim.Verdict{Crash: true, KeepWork: true, Deliver: deliver}
		}
	}
	return sim.Survive()
}

// ScheduledCrashes implements sim.Adversary: the high half crashes early.
func (a *NaiveCascadeAdversary) ScheduledCrashes(r int64) []int {
	if r != 1 {
		return nil
	}
	var pids []int
	for p := a.t/2 + 1; p < a.t; p++ {
		pids = append(pids, p)
	}
	return pids
}

// NextScheduledCrash implements sim.Adversary.
func (a *NaiveCascadeAdversary) NextScheduledCrash(after int64) int64 {
	if after < 1 {
		return 1
	}
	return -1
}
