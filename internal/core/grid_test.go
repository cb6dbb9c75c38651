package core

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// The test grid: every protocol body the package ships, with the adversary
// zoo it runs under. The broadcast-plane, gossip and results-corpus tests
// share it; it is exported for the corpus test in package core_test.

// GridCase is one protocol body of the test grid.
type GridCase struct {
	Name      string
	Procs     func() (Procs, error)
	MaxActive int
}

// GridCases returns the grid's protocol bodies for an (n, t) instance.
func GridCases(n, t int) []GridCase {
	ab, c := ABConfig{N: n, T: t}, CConfig{N: n, T: t}
	fullOnly, lowMsg := ab, c
	fullOnly.FullOnly, lowMsg.ReportEvery = true, max(1, n/t)
	return []GridCase{
		{"A", func() (Procs, error) { return ProtocolAProcs(ab) }, 1},
		{"A-fullonly", func() (Procs, error) { return ProtocolAProcs(fullOnly) }, 1},
		{"B", func() (Procs, error) { return ProtocolBProcs(ab) }, 1},
		{"C", func() (Procs, error) { return ProtocolCProcs(c) }, 1},
		{"C-lowmsg", func() (Procs, error) { return ProtocolCProcs(lowMsg) }, 1},
		{"D", func() (Procs, error) { return ProtocolDProcs(DConfig{N: n, T: t}) }, 0},
		{"D-norevert", func() (Procs, error) { return ProtocolDProcs(DConfig{N: n, T: t, DisableRevert: true}) }, 0},
		{"gossip", func() (Procs, error) { return GossipProcs(GossipConfig{N: n, T: t}) }, 0},
		{"gossip-seeded", func() (Procs, error) { return GossipProcs(GossipConfig{N: n, T: t, Seed: 42}) }, 0},
	}
}

// GridAdversaries builds the grid's adversaries, keyed by name; each call
// of a builder returns a fresh (stateful) adversary.
func GridAdversaries(n, t int) map[string]func() sim.Adversary {
	advs := map[string]func() sim.Adversary{
		"none":    func() sim.Adversary { return nil },
		"cascade": func() sim.Adversary { return adversary.NewCascade(max(1, n/t), t-1) },
	}
	for _, seed := range []int64{1, 7, 42} {
		advs[fmt.Sprintf("random-%d", seed)] = func() sim.Adversary {
			return adversary.NewRandom(0.05, t-1, seed)
		}
	}
	if t > 1 {
		advs["sleep-crash"] = func() sim.Adversary {
			// Crash the highest process while it sleeps, early on.
			return adversary.NewSchedule(adversary.Crash{PID: t - 1, Round: 2})
		}
	}
	return advs
}
