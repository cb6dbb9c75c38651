package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
)

// Scale stress: the theorem bounds must hold far beyond the sizes the
// targeted tests use.

func TestProtocolAScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	n, tt := 4096, 256
	res := runA(t, n, tt, adversary.NewCascade(n/tt, tt-1))
	if res.WorkTotal > int64(3*n) {
		t.Fatalf("work = %d > 3n", res.WorkTotal)
	}
	if float64(res.Messages) > 9*float64(tt)*math.Sqrt(float64(tt)) {
		t.Fatalf("messages = %d > 9t√t", res.Messages)
	}
}

func TestProtocolBScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	n, tt := 4096, 256
	res := runB(t, n, tt, adversary.NewCascade(n/tt, tt-1))
	if res.WorkTotal > int64(3*n) {
		t.Fatalf("work = %d > 3n", res.WorkTotal)
	}
	if res.Rounds > ProtocolBRoundBound(n, tt) {
		t.Fatalf("rounds = %d > bound %d", res.Rounds, ProtocolBRoundBound(n, tt))
	}
}

func TestProtocolDScaleWithPhaseFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	n, tt := 4096, 64
	var crashes []adversary.Crash
	for k := 0; k < 20; k++ {
		crashes = append(crashes, adversary.Crash{PID: k + 1, Round: int64(3 * k)})
	}
	res := runD(t, n, tt, adversary.NewSchedule(crashes...))
	if res.WorkTotal > int64(2*n) {
		t.Fatalf("work = %d > 2n", res.WorkTotal)
	}
}

// TestProtocolBGoAheadChainTorture kills processes so that takeover has to
// walk whole groups with go-ahead probes repeatedly: crash every group's
// lower half up front, then cascade the survivors.
func TestProtocolBGoAheadChainTorture(t *testing.T) {
	n, tt := 64, 16
	var crashes []adversary.Crash
	// In each √t-group {4g..4g+3}, kill the two lowest members at round 0.
	for g := 0; g < 4; g++ {
		crashes = append(crashes,
			adversary.Crash{PID: 4 * g, Round: 0},
			adversary.Crash{PID: 4*g + 1, Round: 0},
		)
	}
	adv := adversary.NewChain(
		adversary.NewSchedule(crashes...),
		adversary.NewCascade(n/tt, 7), // then cascade the survivors
	)
	res := runB(t, n, tt, adv)
	if res.Crashes != 15 {
		t.Fatalf("crashes = %d, want 15", res.Crashes)
	}
	if res.MessagesByKind["go-ahead"] == 0 {
		t.Fatal("torture run produced no go-ahead probes")
	}
}

// TestProtocolCManySeedsSmall drives Protocol C through a broad seed sweep
// at a size where full-run time is still cheap.
func TestProtocolCManySeedsSmall(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		res := runC(t, 12, 4, 1, adversary.NewRandom(0.04, 3, seed))
		if res.WorkTotal > int64(12+2*4) {
			t.Fatalf("seed %d: work %d > n+2t", seed, res.WorkTotal)
		}
	}
}

// TestAllProtocolsManySeeds is a broad completion sweep across every
// protocol and 20 random adversaries each.
func TestAllProtocolsManySeeds(t *testing.T) {
	n, tt := 48, 12
	for _, c := range []struct {
		name, protocol string
		k              int
	}{{"A", "a", 0}, {"B", "b", 0}, {"D", "d", 0}, {"uniform-8", "uniform", 8}} {
		t.Run(c.name, func(t *testing.T) {
			p, _ := LookupProtocol(c.protocol)
			maxActive := 0
			if p.SingleActive {
				maxActive = 1
			}
			for seed := int64(0); seed < 20; seed++ {
				pr, err := p.Build(n, tt, Params{K: c.k})
				runChecked(t, n, tt, pr, err, adversary.NewRandom(0.03, tt-1, seed), maxActive)
			}
		})
	}
}
