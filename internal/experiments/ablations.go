package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
)

// X1FastForward measures the engine's quiet-round skipping, without which
// Protocol C (exponential deadlines) would be unrunnable.
func X1FastForward() Table {
	t := Table{
		ID:    "X1",
		Title: "Ablation: engine fast-forward on Protocol C",
		Claim: "reproduction-specific: nominal rounds are exponential in n + t while simulated events stay " +
			"polynomial, so wall-clock cost tracks events, not rounds",
		Columns: []string{"n", "t", "nominal rounds", "events simulated", "rounds/event"},
	}
	for _, c := range []struct{ n, t int }{{8, 4}, {16, 8}, {24, 8}, {32, 8}} {
		procs, err := core.ProtocolCProcs(core.CConfig{N: c.n, T: c.t})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := run(c.n, c.t, procs, nil)
		if err != nil {
			t.Err = err
			return t
		}
		ratio := float64(res.Rounds) / float64(maxInt64(res.Events, 1))
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.t), V(res.Rounds), V(res.Events), V(fmt.Sprintf("%.3g", ratio)),
		})
	}
	return t
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// X2PartialCheckpointAblation removes Protocol A's partial checkpoints,
// demonstrating why the two-tier scheme exists: with full checkpoints only,
// every takeover loses up to a chunk (n/√t) instead of a subchunk (n/t).
func X2PartialCheckpointAblation() Table {
	t := Table{
		ID:    "X2",
		Title: "Ablation: Protocol A without partial checkpoints",
		Claim: "reproduction-specific: dropping the partial (√t-group) checkpoints saves messages but " +
			"multiplies redone work by ~√t under the cascade — the two-tier compromise of §2 is load-bearing",
		Columns: []string{"n", "t", "variant", "work", "messages", "effort"},
	}
	for _, c := range []struct{ n, t int }{{256, 16}, {256, 64}} {
		for _, fullOnly := range []bool{false, true} {
			procs, err := core.ProtocolAProcs(core.ABConfig{N: c.n, T: c.t, FullOnly: fullOnly})
			if err != nil {
				t.Err = err
				return t
			}
			res, err := run(c.n, c.t, procs, adversary.NewCascade(max(1, c.n/c.t), c.t-1))
			if err != nil {
				t.Err = err
				return t
			}
			name := "partial+full (paper)"
			if fullOnly {
				name = "full only"
			}
			t.Rows = append(t.Rows, []Cell{
				V(c.n), V(c.t), V(name),
				V(res.WorkTotal), V(res.Messages), V(res.WorkTotal + res.Messages),
			})
		}
	}
	return t
}

// X3RevertThreshold sweeps Protocol D's revert factor α (the paper uses 2 =
// "more than half"), reproducing the remark that any factor works with the
// work bound scaling as n/(1−1/α).
func X3RevertThreshold() Table {
	t := Table{
		ID:    "X3",
		Title: "Ablation: Protocol D revert threshold",
		Claim: "§4 remark: any revert fraction α works; by the end of phase k at most αᵏn units remain, " +
			"so total work ≤ n/(1−α); without the revert, work can reach Ω(n·log f/log log f) [DPMY]",
		Columns: []string{"factor", "work", "messages", "rounds", "reverted"},
	}
	n, tt := 128, 16
	mkAdv := func() *adversary.Schedule {
		// Lose just over half of the live processes in the first phase.
		var crashes []adversary.Crash
		for pid := 0; pid < tt/2+1; pid++ {
			crashes = append(crashes, adversary.Crash{PID: pid, Round: 1})
		}
		return adversary.NewSchedule(crashes...)
	}
	type variant struct {
		name    string
		factor  float64
		disable bool
	}
	for _, v := range []variant{
		{"1.2", 1.2, false},
		{"2 (paper)", 0, false},
		{"4", 4, false},
		{"disabled", 0, true},
	} {
		procs, err := core.ProtocolDProcs(core.DConfig{
			N: n, T: tt, RevertFactor: v.factor, DisableRevert: v.disable,
		})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := core.RunProcs(n, tt, procs, core.RunOptions{
			Adversary: mkAdv(), DetailedMetrics: true,
		})
		if err == nil {
			err = core.CheckCompletion(res)
		}
		if err != nil {
			t.Err = fmt.Errorf("factor %s: %w", v.name, err)
			return t
		}
		reverted := res.MessagesByKind["partial-cp"] > 0 || res.MessagesByKind["full-cp"] > 0
		t.Rows = append(t.Rows, []Cell{
			V(v.name), V(res.WorkTotal), V(res.Messages), V(res.Rounds), V(reverted),
		})
	}
	return t
}
