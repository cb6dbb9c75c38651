package experiments

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sharedmem"
	"repro/internal/sim"
)

// F1CheckpointFrequency reproduces §2's opening argument: under a full
// cascade, a uniform checkpoint frequency k trades redone work against
// message overhead, and no k achieves both O(n) work and O(t√t) messages —
// which is why Protocol A splits checkpoints into partial and full tiers.
func F1CheckpointFrequency() Table {
	t := Table{
		ID:    "F1",
		Title: "Uniform checkpoint frequency sweep vs Protocol A/B",
		Claim: "§2: checkpoints every n/k units lose up to nt/k work (so k ≥ t needed for O(n) work) " +
			"but cost tk messages (so k ≤ √t needed for ≤ t√t messages) — incompatible; " +
			"A's partial/full split beats the whole k-sweep on effort",
		Columns: []string{"strategy", "k", "work", "messages", "effort", "rounds"},
	}
	n, tt := 256, 16
	adv := func() sim.Adversary { return adversary.NewCascade(max(1, n/tt), tt-1) }
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		procs, err := core.UniformCheckpointProcs(core.UniformConfig{N: n, T: tt, K: k})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := run(n, tt, procs, adv())
		if err != nil {
			t.Err = fmt.Errorf("k=%d: %w", k, err)
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V("uniform"), V(k), V(res.WorkTotal), V(res.Messages),
			V(res.WorkTotal + res.Messages), V(res.Rounds),
		})
	}
	for _, p := range []struct {
		name  string
		procs func(core.ABConfig) (core.Procs, error)
	}{
		{"protocol A", core.ProtocolAProcs},
		{"protocol B", core.ProtocolBProcs},
	} {
		procs, err := p.procs(core.ABConfig{N: n, T: tt})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := run(n, tt, procs, adv())
		if err != nil {
			t.Err = err
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(p.name), V("—"), V(res.WorkTotal), V(res.Messages),
			V(res.WorkTotal + res.Messages), V(res.Rounds),
		})
	}
	return t
}

// F2NaiveVsC reproduces §3's opening argument: the naive most-knowledgeable
// spread suffers Θ(n + t²) effort under the cascade, while Protocol C stays
// n + O(t log t).
func F2NaiveVsC() Table {
	t := Table{
		ID:    "F2",
		Title: "Naive spread vs Protocol C under the §3 cascade",
		Claim: "§3: the naive algorithm does Θ(t²) redundant work informing retired processes; " +
			"treating failure detection as work (Protocol C) repairs it to n + O(t log t) effort",
		Columns: []string{"t", "n", "naive work", "naive effort", "C work", "C effort"},
	}
	for _, tt := range []int{4, 8, 12, 16} {
		n := tt - 1
		naiveProcs, err := core.NaiveSpreadProcs(core.NaiveConfig{N: n, T: tt})
		if err != nil {
			t.Err = err
			return t
		}
		naive, err := run(n, tt, naiveProcs, core.NewNaiveCascadeAdversary(n, tt))
		if err != nil {
			t.Err = fmt.Errorf("naive t=%d: %w", tt, err)
			return t
		}
		cProcs, err := core.ProtocolCProcs(core.CConfig{N: n, T: tt})
		if err != nil {
			t.Err = err
			return t
		}
		cRes, err := run(n, tt, cProcs, adversary.NewCascade(1, tt/2))
		if err != nil {
			t.Err = fmt.Errorf("C t=%d: %w", tt, err)
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(tt), V(n),
			V(naive.WorkTotal), V(naive.WorkTotal + naive.Messages),
			V(cRes.WorkTotal), V(cRes.WorkTotal + cRes.Messages),
		})
	}
	t.Notes = append(t.Notes,
		"naive effort grows quadratically in t (the §3 cascade); Protocol C's stays near n + t log t")
	return t
}

// F3EffortComparison reproduces §1's comparison of the trivial strategies
// against the work-optimal protocols.
func F3EffortComparison() Table {
	t := Table{
		ID:    "F3",
		Title: "Effort comparison across strategies (cascade adversary)",
		Claim: "§1: Trivial does tn work with no messages; SingleCheckpoint does n+t−1 work but ~tn messages — " +
			"both Θ(tn) effort; A and B achieve O(n + t√t) effort",
		Columns: []string{"strategy", "n", "t", "work", "messages", "effort"},
	}
	for _, c := range []struct{ n, t int }{{64, 16}, {256, 16}, {256, 64}} {
		for _, s := range []struct{ label, name string }{
			{"trivial", "trivial"}, {"single-checkpoint", "single-checkpoint"},
			{"protocol A", "a"}, {"protocol B", "b"},
		} {
			p := entry(s.name)
			procs, err := p.Build(c.n, c.t, core.Params{})
			if err != nil {
				t.Err = err
				return t
			}
			opt := core.RunOptions{
				Adversary:       adversary.NewCascade(max(1, c.n/c.t), c.t-1),
				DetailedMetrics: true,
			}
			if p.SingleActive {
				opt.MaxActive = 1
			}
			res, err := core.RunProcs(c.n, c.t, procs, opt)
			if err == nil {
				err = core.CheckCompletion(res)
			}
			if err != nil {
				t.Err = fmt.Errorf("%s n=%d t=%d: %w", s.label, c.n, c.t, err)
				return t
			}
			t.Rows = append(t.Rows, []Cell{
				V(s.label), V(c.n), V(c.t),
				V(res.WorkTotal), V(res.Messages), V(res.WorkTotal + res.Messages),
			})
		}
	}
	return t
}

// F4TimeDegradation reproduces §4's graceful-degradation claim: D's running
// time grows as ≈ (f+1)n/t + 4f + 2 while B stays ~n-sequential.
func F4TimeDegradation() Table {
	t := Table{
		ID:    "F4",
		Title: "Running time vs number of failures",
		Claim: "§4: Protocol D is time-optimal failure-free (n/t + 2) and degrades by ≈ n/t + 4 rounds " +
			"per failure; the sequential protocols need ≥ n rounds regardless",
		Columns: []string{"f", "D rounds", "D bound", "B rounds", "A rounds"},
	}
	n, tt := 256, 16
	for _, f := range []int{0, 1, 2, 4, 7} {
		var crashes []adversary.Crash
		for k := 0; k < f; k++ {
			crashes = append(crashes, adversary.Crash{PID: k + 1, Round: int64(k * (n/tt + 8))})
		}
		dProcs, err := core.ProtocolDProcs(core.DConfig{N: n, T: tt})
		if err != nil {
			t.Err = err
			return t
		}
		dRes, err := core.RunProcs(n, tt, dProcs, core.RunOptions{Adversary: adversary.NewSchedule(crashes...)})
		if err == nil {
			err = core.CheckCompletion(dRes)
		}
		if err != nil {
			t.Err = fmt.Errorf("D f=%d: %w", f, err)
			return t
		}
		bProcs, _ := core.ProtocolBProcs(core.ABConfig{N: n, T: tt})
		bRes, err := run(n, tt, bProcs, adversary.NewCascade(max(1, n/tt), f))
		if err != nil {
			t.Err = err
			return t
		}
		aProcs, _ := core.ProtocolAProcs(core.ABConfig{N: n, T: tt})
		aRes, err := run(n, tt, aProcs, adversary.NewCascade(max(1, n/tt), f))
		if err != nil {
			t.Err = err
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(f),
			B(dRes.Rounds, int64((f+1)*n/tt+4*f+2)),
			V(int64((f+1)*n/tt + 4*f + 2)),
			V(bRes.Rounds), V(aRes.Rounds),
		})
	}
	return t
}

// F5SharedMemory reproduces §1.1's shared-memory comparison.
func F5SharedMemory() Table {
	t := Table{
		ID:    "F5",
		Title: "Shared-memory Write-All vs message passing",
		Claim: "§1.1: with shared memory the straightforward algorithm achieves O(n + t) effort " +
			"(reads + writes + work) in O(nt) time; message passing pays the checkpoint message terms",
		Columns: []string{"n", "t", "shm crashes", "shm effort ≤ 2n+4t", "shm rounds", "A effort (msgs+work)", "B effort"},
	}
	for _, c := range []struct{ n, t int }{{64, 16}, {256, 16}, {256, 64}} {
		// Write-All never sends, so a sender cascade would crash no one:
		// PIDs 0..t−2 each crash at their second action, keeping its unit.
		shm, err := sharedmem.Run(sharedmem.Config{N: c.n, T: c.t},
			adversary.NewSchedule(crashFirst(c.t-1, 2)...))
		if err != nil {
			t.Err = err
			return t
		}
		aProcs, _ := core.ProtocolAProcs(core.ABConfig{N: c.n, T: c.t})
		aRes, err := run(c.n, c.t, aProcs, adversary.NewCascade(max(1, c.n/c.t), c.t-1))
		if err != nil {
			t.Err = err
			return t
		}
		bProcs, _ := core.ProtocolBProcs(core.ABConfig{N: c.n, T: c.t})
		bRes, err := run(c.n, c.t, bProcs, adversary.NewCascade(max(1, c.n/c.t), c.t-1))
		if err != nil {
			t.Err = err
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.t), V(shm.Sim.Crashes),
			B(shm.Effort(), int64(2*c.n+4*c.t)),
			V(shm.Sim.Rounds),
			V(aRes.WorkTotal + aRes.Messages),
			V(bRes.WorkTotal + bRes.Messages),
		})
	}
	return t
}

// F6AsyncProtocolA runs core's Protocol A Steppers on the §2.1
// asynchronous plane: real goroutines, delayed messages and a failure
// detector instead of the deadlines.
func F6AsyncProtocolA() Table {
	t := Table{
		ID:    "F6",
		Title: "Asynchronous Protocol A with failure detection (real goroutines)",
		Claim: "§2.1: replacing the deadline DD(j) by 'the failure detector reports 0..j−1 retired' " +
			"preserves completion and work-optimality in a fully asynchronous system",
		Columns: []string{"n", "t", "killed", "work ≤ 3n + t", "messages ≤ 9t√t", "complete"},
	}
	for _, c := range []struct{ n, t, kills int }{{64, 16, 0}, {64, 16, 8}, {64, 16, 15}, {128, 16, 10}} {
		steppers, err := core.SteppersFor(core.ProtocolAProcs(core.ABConfig{N: c.n, T: c.t}))
		if err != nil {
			t.Err = err
			return t
		}
		res, err := live.RunAsync(c.n, c.t, 100*time.Microsecond, int64(c.n+c.kills), crashFirst(c.kills, 2), steppers)
		if err != nil {
			t.Err = err
			return t
		}
		ok := res.Complete()
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.t), V(res.Crashes),
			B(res.WorkTotal, int64(3*c.n+c.t)),
			B(res.Messages, int64(9*c.t*4)),
			{Value: fmt.Sprint(ok), OK: &ok},
		})
	}
	t.Notes = append(t.Notes,
		"PIDs 0..killed−1 each crash at their second action; the same plan on the engine gives the same "+
			"work, messages, crashes and survivors (TestAsyncMatchesEngine)",
		"the detector reports a retirement only after the retiree's messages have flushed; "+
			"without that ordering (paper's literal FD spec) work degrades to Θ(n√t) — see DESIGN.md §7.6")
	return t
}

// crashFirst crashes PIDs 0..k−1, each at its at-th action, keeping that
// action's unit.
func crashFirst(k, at int) []adversary.Crash {
	plan := make([]adversary.Crash, k)
	for pid := range plan {
		plan[pid] = adversary.Crash{PID: pid, AtAction: at, KeepWork: true}
	}
	return plan
}
