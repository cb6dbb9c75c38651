// Package doall implements the fault-tolerant work-performing protocols of
// Dwork, Halpern and Waarts, "Performing Work Efficiently in the Presence of
// Faults" (PODC 1992 / SIAM J. Comput.): t synchronous message-passing
// processes subject to crash failures must perform n idempotent units of
// work, and in every execution in which at least one process survives, all
// the work must be done.
//
// Four protocols are provided, trading work, messages and time:
//
//   - ProtocolA: single active worker with partial (√t-group) and full
//     checkpoints. O(n + t) work, O(t√t) messages, O(nt + t²) rounds.
//   - ProtocolB: Protocol A with go-ahead polling at takeover. O(n + t)
//     work, O(t√t) messages, O(n + t) rounds.
//   - ProtocolC: most-knowledgeable takeover with recursive fault
//     detection. O(n + t) work, n + O(t log t) messages, exponential time.
//     ProtocolCLowMsg is the Corollary 3.9 variant with O(t log t) messages.
//   - ProtocolD: parallel work with agreement phases. n/t + 2 rounds and
//     ≤ 2t² messages when nothing fails; degrades gracefully, reverting to
//     Protocol A if more than half the live processes die in one phase.
//
// A successor protocol from the literature that followed the paper is also
// provided: Gossip, a leader-free epidemic strategy whose per-epoch
// communication is bounded by construction, designed for the
// congested-clique bandwidth cap (Config.Bandwidth).
//
// Baselines from the paper's motivating discussion (Trivial,
// SingleCheckpoint, UniformCheckpoint, NaiveSpread) are included for
// comparison, as is the §5 Byzantine agreement application (RunAgreement)
// and Protocol A's Steppers on a fully asynchronous plane with a failure
// detector (live.RunAsync; see examples/asyncpool).
package doall

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Protocol selects a work-performing strategy.
type Protocol int

const (
	// ProtocolA is the checkpointing protocol of §2 (Theorem 2.3).
	ProtocolA Protocol = iota + 1
	// ProtocolB adds go-ahead polling for O(n + t) time (Theorem 2.8).
	ProtocolB
	// ProtocolC is the O(n + t log t)-message protocol of §3 (Theorem 3.8).
	ProtocolC
	// ProtocolCLowMsg is the Corollary 3.9 variant reporting every ⌈n/t⌉
	// units: O(t log t) messages.
	ProtocolCLowMsg
	// ProtocolD alternates parallel work and agreement phases (§4,
	// Theorem 4.1).
	ProtocolD
	// Trivial has every process perform every unit: tn work, no messages.
	Trivial
	// SingleCheckpoint has one worker checkpoint to everyone after every
	// unit: n + t − 1 work, ~tn messages.
	SingleCheckpoint
	// UniformCheckpoint checkpoints to everyone every ⌈n/k⌉ units
	// (Config.CheckpointK); the §2 strawman.
	UniformCheckpoint
	// NaiveSpread is §3's strawman: report unit u to process u mod t, most
	// knowledgeable takes over, no fault detection; Θ(n + t²) worst-case
	// effort.
	NaiveSpread
	// Gossip is the successor strategy in the epidemic/gossip style:
	// leader-free two-round epochs in which every process works on the first
	// missing unit of its private seeded order and gossips its done-view to
	// ~log t rotating peers. Pairs naturally with Config.Bandwidth (the
	// congested-clique cap).
	Gossip
)

// spec returns p's entry in core's protocol table, whose entries the
// constants above number in order from ProtocolA to Gossip.
func (p Protocol) spec() (core.Protocol, bool) {
	if p < ProtocolA || p > Gossip {
		return core.Protocol{}, false
	}
	return core.Protocols[p-ProtocolA], true
}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if s, ok := p.spec(); ok {
		return s.Title
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// SingleActive reports whether the protocol maintains the at-most-one-
// active-process invariant (checkable via Config.CheckInvariants).
func (p Protocol) SingleActive() bool {
	s, _ := p.spec()
	return s.SingleActive
}

// Config describes one run.
type Config struct {
	// Units is n, the number of idempotent work units (IDs 1..n).
	Units int
	// Workers is t, the number of processes (IDs 0..t-1).
	Workers int
	// Protocol selects the strategy (required).
	Protocol Protocol
	// Failures injects crash failures; nil means failure-free.
	Failures Failures
	// CheckpointK sets k for UniformCheckpoint (ignored otherwise).
	CheckpointK int
	// RevertFactor overrides Protocol D's revert threshold (0 = paper's 2).
	RevertFactor float64
	// DisableRevert turns off Protocol D's Protocol A fallback.
	DisableRevert bool
	// CheckInvariants enables the at-most-one-active check for
	// single-active protocols.
	CheckInvariants bool
	// MaxRound aborts runaway executions (0 = no limit; note Protocol C's
	// deadlines are exponential in n + t by design).
	MaxRound int64
	// Bandwidth caps the point-to-point messages each process may transmit
	// per round — the congested-clique model. Over-budget sends are queued
	// on the sender and transmitted by later rounds (Result.Deferred counts
	// them). 0 means unlimited.
	Bandwidth int
	// Observer, when non-nil, is called with the worker and unit of every
	// unit counted in Result.Work (e.g. to drive a workload.Workload): once
	// per counted unit, at its commit and in commit order. A unit performed
	// in the round its worker crashes is observed exactly when the crash
	// keeps it. Setting an Observer does not change the run.
	Observer func(worker, unit int)
	// Tracer, when non-nil, receives one event per committed action —
	// feed it to a trace recorder to render execution timelines.
	Tracer func(TraceEvent)
}

// TraceEvent describes one committed action of one worker.
type TraceEvent struct {
	Round   int64
	Worker  int
	Work    int // unit counted in Result.Work this round (0 = none)
	Sent    int // messages transmitted this round
	Crashed bool
	Halted  bool
}

// Run executes the configured protocol and returns its metrics. Protocols
// A–D, trivial and gossip run on the simulator's zero-goroutine stepper
// substrate, with or without an Observer or Tracer: both are fed from the
// engine's commit, so restarts are honoured and the Observer sees exactly
// the units Result.Work counts. Engines are recycled from a pool across runs
// (sim.Engine.Reset), so sweeping millions of configurations pays near-zero
// per-run setup allocation; pooling is invisible in the results.
func Run(cfg Config) (Result, error) {
	res, err := run(cfg)
	if err != nil {
		return Result{}, err
	}
	return newResult(res), nil
}

func run(cfg Config) (sim.Result, error) {
	procs, err := buildProcs(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	opt := core.RunOptions{
		MaxRound:        cfg.MaxRound,
		Bandwidth:       cfg.Bandwidth,
		DetailedMetrics: true,
	}
	if tr, obs := cfg.Tracer, cfg.Observer; tr != nil || obs != nil {
		opt.Tracer = func(e sim.Event) {
			if obs != nil && e.Work > 0 {
				obs(e.PID, e.Work)
			}
			if tr != nil {
				tr(TraceEvent{
					Round: e.Round, Worker: e.PID, Work: e.Work, Sent: e.Sent,
					Crashed: e.Crashed, Halted: e.Halted,
				})
			}
		}
	}
	if cfg.Failures != nil {
		opt.Adversary = cfg.Failures.adversary()
	}
	if cfg.CheckInvariants && cfg.Protocol.SingleActive() {
		opt.MaxActive = 1
	}
	return core.RunProcs(cfg.Units, cfg.Workers, procs, opt)
}

func buildProcs(cfg Config) (core.Procs, error) {
	if cfg.Workers <= 0 {
		return core.Procs{}, fmt.Errorf("doall: Workers = %d, need at least one", cfg.Workers)
	}
	if cfg.Units < 0 {
		return core.Procs{}, fmt.Errorf("doall: Units = %d, need non-negative", cfg.Units)
	}
	s, ok := cfg.Protocol.spec()
	if !ok {
		return core.Procs{}, fmt.Errorf("doall: unknown protocol %v", cfg.Protocol)
	}
	if s.NeedsK && cfg.CheckpointK <= 0 {
		return core.Procs{}, fmt.Errorf("doall: %v needs CheckpointK > 0", cfg.Protocol)
	}
	return s.Build(cfg.Units, cfg.Workers, core.Params{
		K: cfg.CheckpointK, RevertFactor: cfg.RevertFactor, DisableRevert: cfg.DisableRevert,
	})
}
