package core

import (
	"math"

	"repro/internal/group"
)

// Params are the knobs a protocol builder takes beyond (n, t). Each protocol
// reads only its own; the zero value is every protocol's default. No knob
// selects a substrate: every protocol with a stepper body builds it.
type Params struct {
	// K is uniform's checkpoint count per pass; uniform needs K > 0.
	K int
	// RevertFactor and DisableRevert tune Protocol D's revert to Protocol A
	// (see DConfig).
	RevertFactor  float64
	DisableRevert bool
}

// Bounds are a protocol's certified per-run limits; a zero field is unchecked.
type Bounds struct{ Work, Messages, Rounds int64 }

// Protocol declares one protocol: its name, its builder, the bounds it is
// certified against and the flags the execution planes need.
type Protocol struct {
	// Name is the protocol's name on the command line and in explore.
	Name string
	// Title is its display name (doall.Protocol's String).
	Title string
	// Build builds the process Steppers of an (n, t) run.
	Build func(n, t int, p Params) (Procs, error)
	// Bounds gives the certified limits of a run with at most f failures,
	// with the model-adjusted round constants of DESIGN.md §2; nil for the
	// baselines that certify only completion and the single-active invariant.
	Bounds func(n, t, f int) Bounds
	// SingleActive reports that at most one process is active at a time.
	SingleActive bool
	// Symmetric declares that no branch, role or message depends on the
	// process identity (explore.SymmetryWitness guards it). Only trivial is:
	// the others order takeovers, chunks, agreement or seeds by PID.
	Symmetric bool
	// Bandwidth, when non-nil, is the per-process per-round send cap the
	// protocol runs (and is certified) under at t processes.
	Bandwidth func(t int) int
	// NeedsK reports that Build needs Params.K. Callers that build from
	// (n, t) alone — explore and the live planes — do not offer it.
	NeedsK bool
}

// Protocols is the protocol table, in doall.Protocol order; gossip-cap, which
// doall runs as Gossip with Config.Bandwidth set, comes last.
var Protocols = []Protocol{
	{
		Name: "a", Title: "A", SingleActive: true,
		Build: func(n, t int, _ Params) (Procs, error) { return ProtocolAProcs(ABConfig{N: n, T: t}) },
		// Theorem 2.3.
		Bounds: abBounds(9, ProtocolARoundBound),
	},
	{
		Name: "b", Title: "B", SingleActive: true,
		Build: func(n, t int, _ Params) (Procs, error) { return ProtocolBProcs(ABConfig{N: n, T: t}) },
		// Theorem 2.8.
		Bounds: abBounds(10, ProtocolBRoundBound),
	},
	{
		Name: "c", Title: "C", SingleActive: true,
		Build: func(n, t int, _ Params) (Procs, error) { return ProtocolCProcs(CConfig{N: n, T: t}) },
		// Theorem 3.8.
		Bounds: func(n, t, _ int) Bounds {
			return Bounds{Work: int64(n + 2*t), Messages: int64(n + 8*t*log2t(t)), Rounds: ProtocolCRoundBound(n, t, 1)}
		},
	},
	{
		Name: "c-lowmsg", Title: "C-lowmsg", SingleActive: true,
		Build: func(n, t int, p Params) (Procs, error) {
			return ProtocolCProcs(CConfig{N: n, T: t, ReportEvery: lowMsgEvery(n, t)})
		},
		// Corollary 3.9.
		Bounds: func(n, t, _ int) Bounds {
			return Bounds{
				Work: int64(2 * (n + 2*t)), Messages: int64(10 * t * log2t(t)),
				Rounds: ProtocolCRoundBound(n, t, lowMsgEvery(n, t)),
			}
		},
	},
	{
		Name: "d", Title: "D",
		Build: func(n, t int, p Params) (Procs, error) {
			return ProtocolDProcs(DConfig{N: n, T: t, RevertFactor: p.RevertFactor, DisableRevert: p.DisableRevert})
		},
		// Theorem 4.1(2): arbitrary schedules may force the revert to
		// Protocol A, so the bounds are the reverted ones.
		Bounds: func(n, t, f int) Bounds {
			return Bounds{
				Work:     int64(4 * max(n, t)),
				Messages: int64((4*f+2)*t*t) + int64(9*tRootT(t)/(2*math.Sqrt2)),
				Rounds:   ProtocolDRoundBound(n, t, f),
			}
		},
	},
	{
		// §1: every process performs every unit and never communicates. The
		// work bound tn is exact even under restarts: a process crashes at
		// most once and never redoes a counted unit.
		Name: "trivial", Title: "trivial", Symmetric: true,
		Build:  func(n, _ int, _ Params) (Procs, error) { return TrivialProcs(n), nil },
		Bounds: func(n, t, _ int) Bounds { return Bounds{Work: satMul(int64(t), int64(n))} },
	},
	{
		// §1's "one worker, checkpoint to everyone after every unit": n + t − 1
		// work but ~tn messages.
		Name: "single-checkpoint", Title: "single-checkpoint", SingleActive: true,
		Build: func(n, t int, _ Params) (Procs, error) { return uniformProcs(n, t, max(n, 1)) },
	},
	{
		Name: "uniform", Title: "uniform-checkpoint", SingleActive: true, NeedsK: true,
		Build: func(n, t int, p Params) (Procs, error) { return uniformProcs(n, t, p.K) },
	},
	{
		Name: "naive", Title: "naive-spread", SingleActive: true,
		Build: func(n, t int, _ Params) (Procs, error) {
			return NaiveSpreadProcs(NaiveConfig{N: n, T: t})
		},
	},
	// The successor protocol, leader-free epoch gossip (gossip_step.go), and
	// the same under a congested-clique cap of half the fanout, which defers
	// each epoch's rumor overflow by one round: lag 1 in the bounds.
	{Name: "gossip", Title: "gossip", Build: buildGossip, Bounds: gossipBounds(0)},
	{
		Name: "gossip-cap", Title: "gossip-cap", Build: buildGossip, Bounds: gossipBounds(1),
		Bandwidth: func(t int) int { return max(1, (GossipFanout(t)+1)/2) },
	},
}

// LookupProtocol returns the table entry called name.
func LookupProtocol(name string) (Protocol, bool) {
	for _, p := range Protocols {
		if p.Name == name {
			return p, true
		}
	}
	return Protocol{}, false
}

// abBounds is Theorems 2.3 and 2.8: 3n′ work and c·t√t messages.
func abBounds(c float64, rounds func(n, t int) int64) func(n, t, f int) Bounds {
	return func(n, t, _ int) Bounds {
		return Bounds{Work: 3 * int64(max(n, t)), Messages: int64(c * tRootT(t)), Rounds: rounds(n, t)}
	}
}

func gossipBounds(lag int) func(n, t, f int) Bounds {
	return func(n, t, f int) Bounds {
		return Bounds{
			Work: GossipWorkBound(n, t, f, lag), Messages: GossipMessageBound(n, t, f, lag),
			Rounds: GossipRoundBound(n, t, f, lag),
		}
	}
}

func buildGossip(n, t int, _ Params) (Procs, error) {
	return GossipProcs(GossipConfig{N: n, T: t})
}

func uniformProcs(n, t, k int) (Procs, error) {
	return UniformCheckpointProcs(UniformConfig{N: n, T: t, K: k})
}

// lowMsgEvery is Corollary 3.9's report interval ⌈n/t⌉.
func lowMsgEvery(n, t int) int { return max((n+t-1)/t, 1) }

func tRootT(t int) float64 { return float64(t) * math.Sqrt(float64(t)) }

func log2t(t int) int { return max(group.CeilLog2(t), 1) }
