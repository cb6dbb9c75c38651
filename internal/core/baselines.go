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

// UniformCheckpointProcs builds the uniform-checkpoint baseline. Process 0
// works from the start; process j > 0 sleeps until its deadline j·(n+k+3),
// waking on each checkpoint, and takes over from the last unit it heard of
// unless that was unit n.
func UniformCheckpointProcs(cfg UniformConfig) (Procs, error) {
	if cfg.T <= 0 || cfg.N < 0 || cfg.K <= 0 {
		return Procs{}, fmt.Errorf("core: invalid uniform config n=%d t=%d k=%d", cfg.N, cfg.T, cfg.K)
	}
	every := subchunkWidth(cfg.N, cfg.K)
	// Active lifetime: n work rounds + ≤ k+1 broadcast rounds + slack.
	life := int64(cfg.N + cfg.K + 3)
	all := make([]int, cfg.T)
	for i := range all {
		all[i] = i
	}
	return Procs{Steppers: func(j int) sim.Stepper {
		return &uniformMachine{n: cfg.N, every: every, all: all, j: j, deadline: int64(j) * life}
	}}, nil
}

// uniformMachine is one process of the uniform-checkpoint baseline: a
// waiter until it takes over, then the active worker that broadcasts
// UniformDone after every `every` units and after unit n.
type uniformMachine struct {
	n, every int
	all      []int // every PID; BroadcastTo skips the sender
	j        int
	deadline int64
	known    int // highest unit a checkpoint reported done
	u        int // next unit to perform; 0 until the process takes over
	since    int // units performed since the last checkpoint
	cast     int // checkpoint owed before the next unit (0: none)
}

// Step implements sim.Stepper.
func (m *uniformMachine) Step(p *sim.Proc) sim.Yield {
	if m.u == 0 {
		for m.j > 0 {
			if shouldSleep(p, m.deadline) {
				return sleepYield(m.deadline)
			}
			for _, msg := range p.Drain() {
				if d, ok := msg.Payload.(UniformDone); ok && d.U > m.known {
					m.known = d.U
				}
			}
			if m.known >= m.n {
				return haltYield()
			}
			if p.Now() >= m.deadline {
				break
			}
		}
		m.u = m.known + 1
		p.SetActive(true)
	}
	if m.cast > 0 {
		y := broadcastYield(p, m.all, UniformDone{U: m.cast})
		m.cast = 0
		return y
	}
	if m.u > m.n {
		p.SetActive(false)
		return haltYield()
	}
	u := m.u
	m.u++
	if m.since++; m.since >= m.every || u == m.n {
		if len(m.all) > 1 {
			m.cast = u
		}
		m.since = 0
	}
	return workYield(u)
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

// NaiveSpreadProcs builds the naive baseline: report unit u to process
// u mod t, most knowledgeable takes over, no fault detection. Reports sent
// to retired processes teach no one, which is exactly how the §3 cascade
// drives effort to Θ(n + t²).
func NaiveSpreadProcs(cfg NaiveConfig) (Procs, error) {
	if cfg.T <= 0 || cfg.N < 0 {
		return Procs{}, fmt.Errorf("core: invalid naive config n=%d t=%d", cfg.N, cfg.T)
	}
	return Procs{Steppers: func(j int) sim.Stepper {
		return &naiveMachine{cfg: cfg, j: j, deadline: naiveDeadline(cfg, j, 0)}
	}}, nil
}

// naiveMachine is one process of the naive baseline: a waiter that pushes
// its deadline out on every report that teaches it more, then the active
// worker that performs each remaining unit u and reports it to u mod t.
type naiveMachine struct {
	cfg      NaiveConfig
	j        int
	deadline int64
	known    int         // highest unit a report covered
	u        int         // next unit to perform; 0 until the process takes over
	report   bool        // unit u-1 is owed its report
	send     [1]sim.Send // backs the report action
}

// Step implements sim.Stepper.
func (m *naiveMachine) Step(p *sim.Proc) sim.Yield {
	if m.u == 0 {
		for m.j > 0 {
			if shouldSleep(p, m.deadline) {
				return sleepYield(m.deadline)
			}
			upd := false
			var recv int64
			for _, msg := range p.Drain() {
				if r, ok := msg.Payload.(NaiveReport); ok && r.Units > m.known {
					m.known, upd, recv = r.Units, true, msg.SentAt+1
				}
			}
			if upd {
				m.deadline = satAdd(recv, naiveDeadline(m.cfg, m.j, m.known))
			} else if p.Now() >= m.deadline {
				break
			}
		}
		m.u = m.known + 1
		p.SetActive(true)
	}
	if m.report {
		m.report = false
		u := m.u - 1
		m.send[0] = sim.Send{To: u % m.cfg.T, Payload: NaiveReport{Units: u}}
		return sendYield(m.send[:])
	}
	if m.u > m.cfg.N {
		p.SetActive(false)
		return haltYield()
	}
	u := m.u
	m.u++
	m.report = u%m.cfg.T != m.j
	return workYield(u)
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
