package experiments

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/sim"
)

// advCase names one adversary construction; fresh adversaries are built per
// run because they are stateful.
type advCase struct {
	name  string
	build func(n, t int) sim.Adversary
}

func stdAdversaries() []advCase {
	return []advCase{
		{"none", func(int, int) sim.Adversary { return nil }},
		{"cascade", func(n, t int) sim.Adversary {
			return adversary.NewCascade(max(1, n/t), t-1)
		}},
		{"random", func(n, t int) sim.Adversary {
			return adversary.NewRandom(0.02, t-1, 17)
		}},
	}
}

func run(n, t int, pr core.Procs, adv sim.Adversary) (sim.Result, error) {
	res, err := core.RunProcs(n, t, pr, core.RunOptions{
		Adversary: adv, MaxActive: 1, DetailedMetrics: true,
	})
	if err != nil {
		return res, err
	}
	return res, core.CheckCompletion(res)
}

// entry returns the protocol table entry called name.
func entry(name string) core.Protocol {
	p, ok := core.LookupProtocol(name)
	if !ok {
		panic("experiments: no protocol " + name)
	}
	return p
}

// grid is a list of (n, t) instances.
type grid []struct{ n, t int }

// boundsTable fills t with one row per instance and standard adversary:
// the named protocol's work, messages and rounds against its table bounds.
func boundsTable(t Table, name string, instances grid) Table {
	p := entry(name)
	for _, c := range instances {
		b := p.Bounds(c.n, c.t, c.t-1)
		for _, ac := range stdAdversaries() {
			procs, err := p.Build(c.n, c.t, core.Params{})
			if err != nil {
				t.Err = err
				return t
			}
			res, err := run(c.n, c.t, procs, ac.build(c.n, c.t))
			if err != nil {
				t.Err = fmt.Errorf("n=%d t=%d %s: %w", c.n, c.t, ac.name, err)
				return t
			}
			t.Rows = append(t.Rows, []Cell{
				V(c.n), V(c.t), V(ac.name), V(res.Crashes),
				B(res.WorkTotal, b.Work),
				B(res.Messages, b.Messages),
				B(res.Rounds, b.Rounds),
			})
		}
	}
	return t
}

// T1ProtocolA reproduces Theorem 2.3.
func T1ProtocolA() Table {
	return boundsTable(Table{
		ID:    "T1",
		Title: "Protocol A worst-case bounds",
		Claim: "Theorem 2.3: ≤ 3n′ work, ≤ 9t√t messages, all retired by nt + 3t² " +
			"(time bound below uses this reproduction's model-adjusted active lifetime, see DESIGN.md §2)",
		Columns: []string{"n", "t", "adversary", "crashes", "work ≤ 3n′", "messages ≤ 9t√t", "rounds ≤ t·life"},
	}, "a", grid{{64, 16}, {144, 9}, {256, 16}, {100, 25}, {256, 64}})
}

// T2ProtocolB reproduces Theorem 2.8.
func T2ProtocolB() Table {
	return boundsTable(Table{
		ID:    "T2",
		Title: "Protocol B worst-case bounds",
		Claim: "Theorem 2.8: ≤ 3n work, ≤ 10t√t messages, all retired by 3n + 8t " +
			"(time bound below: n + 3t useful rounds + TT(t−1,0) + one active lifetime)",
		Columns: []string{"n", "t", "adversary", "crashes", "work ≤ 3n′", "messages ≤ 10t√t", "rounds ≤ O(n+t)"},
	}, "b", grid{{64, 16}, {144, 9}, {256, 16}, {100, 25}, {256, 64}})
}

// T3ProtocolC reproduces Theorem 3.8.
func T3ProtocolC() Table {
	return boundsTable(Table{
		ID:    "T3",
		Title: "Protocol C worst-case bounds",
		Claim: "Theorem 3.8: ≤ n + 2t real work, ≤ n + 8t·log t messages, all retired by " +
			"t(5t + 2·log t)(n + t)·2^(n+t); n + t kept small because the deadlines are exponential",
		Columns: []string{"n", "t", "adversary", "crashes", "work ≤ n+2t", "messages ≤ n+8t·logt", "rounds ≤ tK(n+t)2^(n+t)"},
	}, "c", grid{{16, 4}, {24, 8}, {32, 8}, {16, 16}})
}

// T4ProtocolCLowMsg reproduces Corollary 3.9.
func T4ProtocolCLowMsg() Table {
	t := Table{
		ID:    "T4",
		Title: "Protocol C low-message variant",
		Claim: "Corollary 3.9: reporting every ⌈n/t⌉ units yields O(t log t) messages and O(n + t) work " +
			"(bounds below: 10t·log t messages, 2(n + 2t) work)",
		Columns: []string{"n", "t", "adversary", "messages ≤ 10t·logt", "work ≤ 2(n+2t)", "msgs vs per-unit C"},
	}
	lowMsg, perUnitC := entry("c-lowmsg"), entry("c")
	for _, c := range (grid{{24, 4}, {32, 8}, {24, 8}}) {
		b := lowMsg.Bounds(c.n, c.t, c.t-1)
		for _, ac := range stdAdversaries() {
			mk := func(p core.Protocol) (sim.Result, error) {
				procs, err := p.Build(c.n, c.t, core.Params{})
				if err != nil {
					return sim.Result{}, err
				}
				return run(c.n, c.t, procs, ac.build(c.n, c.t))
			}
			low, err := mk(lowMsg)
			if err != nil {
				t.Err = err
				return t
			}
			perUnit, err := mk(perUnitC)
			if err != nil {
				t.Err = err
				return t
			}
			t.Rows = append(t.Rows, []Cell{
				V(c.n), V(c.t), V(ac.name),
				B(low.Messages, b.Messages),
				B(low.WorkTotal, b.Work),
				B(low.Messages, perUnit.Messages),
			})
		}
	}
	return t
}

// T5ProtocolD reproduces Theorem 4.1 part 1.
func T5ProtocolD() Table {
	t := Table{
		ID:      "T5",
		Title:   "Protocol D with at most half the live processes failing per phase",
		Claim:   "Theorem 4.1(1): ≤ 2n work, ≤ (4f+2)t² messages, all retired by (f+1)n/t + 4f + 2",
		Columns: []string{"n", "t", "f", "work ≤ 2n", "messages ≤ (4f+2)t²", "rounds ≤ (f+1)n/t+4f+2"},
	}
	n, tt := 128, 8
	for f := 0; f <= 3; f++ {
		var crashes []adversary.Crash
		for k := 0; k < f; k++ {
			crashes = append(crashes, adversary.Crash{PID: k + 1, Round: int64(k * (n/tt + 8))})
		}
		procs, err := core.ProtocolDProcs(core.DConfig{N: n, T: tt})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := core.RunProcs(n, tt, procs, core.RunOptions{
			Adversary: adversary.NewSchedule(crashes...), DetailedMetrics: true,
		})
		if err == nil {
			err = core.CheckCompletion(res)
		}
		if err != nil {
			t.Err = fmt.Errorf("f=%d: %w", f, err)
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(n), V(tt), V(f),
			B(res.WorkTotal, int64(2*n)),
			B(res.Messages, int64((4*f+2)*tt*tt)),
			B(res.Rounds, int64((f+1)*n/tt+4*f+2)),
		})
	}
	return t
}

// T6ProtocolDRevert reproduces Theorem 4.1 part 2.
func T6ProtocolDRevert() Table {
	t := Table{
		ID:    "T6",
		Title: "Protocol D reverting to Protocol A after losing more than half a phase's processes",
		Claim: "Theorem 4.1(2): ≤ 4n work, ≤ (4f+2)t² + 9t√t/(2√2) messages, " +
			"all retired by (f+1)n/t + 4f + 2 + nt/2 + 3t²/4 (time below uses the model-adjusted A bound)",
		Columns: []string{"n", "t", "crashed", "reverted", "work ≤ 4n", "messages ≤ bound", "rounds ≤ bound"},
	}
	d := entry("d")
	for _, c := range (grid{{64, 8}, {128, 16}}) {
		var crashes []adversary.Crash
		f := c.t/2 + 1
		for pid := 0; pid < f; pid++ {
			crashes = append(crashes, adversary.Crash{PID: pid, Round: 1})
		}
		procs, err := d.Build(c.n, c.t, core.Params{})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := core.RunProcs(c.n, c.t, procs, core.RunOptions{
			Adversary: adversary.NewSchedule(crashes...), DetailedMetrics: true,
		})
		if err == nil {
			err = core.CheckCompletion(res)
		}
		if err != nil {
			t.Err = err
			return t
		}
		reverted := res.MessagesByKind["partial-cp"] > 0 || res.MessagesByKind["full-cp"] > 0
		b := d.Bounds(c.n, c.t, f)
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.t), V(res.Crashes), V(reverted),
			B(res.WorkTotal, b.Work),
			B(res.Messages, b.Messages),
			B(res.Rounds, b.Rounds),
		})
	}
	return t
}

// T7ProtocolDFailureFree reproduces §4's exact failure-free and one-failure
// costs.
func T7ProtocolDFailureFree() Table {
	t := Table{
		ID:    "T7",
		Title: "Protocol D with zero and one failures",
		Claim: "§4: no failures ⇒ n work, exactly n/t + 2 rounds, ≤ 2t² messages; " +
			"one failure ⇒ ≤ n + n/t work, ≤ n/t + ⌈n/(t(t−1))⌉ + 6 rounds, ≤ 5t² messages",
		Columns: []string{"n", "t", "f", "work", "rounds", "messages"},
	}
	for _, c := range []struct{ n, t int }{{64, 8}, {128, 16}, {256, 16}} {
		procs, err := core.ProtocolDProcs(core.DConfig{N: c.n, T: c.t})
		if err != nil {
			t.Err = err
			return t
		}
		res, err := core.RunProcs(c.n, c.t, procs, core.RunOptions{DetailedMetrics: true})
		if err != nil {
			t.Err = err
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.t), V(0),
			Eq(res.WorkTotal, int64(c.n)),
			Eq(res.Rounds, int64(c.n/c.t+2)),
			B(res.Messages, int64(2*c.t*c.t)),
		})
		procs, _ = core.ProtocolDProcs(core.DConfig{N: c.n, T: c.t})
		res, err = core.RunProcs(c.n, c.t, procs, core.RunOptions{
			Adversary:       adversary.NewSchedule(adversary.Crash{PID: 2, Round: 0}),
			DetailedMetrics: true,
		})
		if err == nil {
			err = core.CheckCompletion(res)
		}
		if err != nil {
			t.Err = err
			return t
		}
		roundBound := int64(c.n/c.t + (c.n+c.t*(c.t-1)-1)/(c.t*(c.t-1)) + 6)
		t.Rows = append(t.Rows, []Cell{
			V(c.n), V(c.t), V(1),
			B(res.WorkTotal, int64(c.n+c.n/c.t)),
			B(res.Rounds, roundBound),
			B(res.Messages, int64(5*c.t*c.t)),
		})
	}
	return t
}

// T8Agreement reproduces §5's Byzantine agreement costs.
func T8Agreement() Table {
	t := Table{
		ID:    "T8",
		Title: "Byzantine agreement for crash faults via the work protocols",
		Claim: "§5: via Protocol B, O(n + t√t) messages and O(n) rounds (Bracha's bound, constructively); " +
			"via Protocol C, O(n + t log t) messages at exponential time; agreement and validity always hold",
		Columns: []string{"protocol", "n", "f", "adversary", "messages", "msg bound", "rounds", "agreement"},
	}
	type cse struct {
		proto agreement.WorkProtocol
		n, f  int
	}
	cases := []cse{
		{agreement.UseB, 32, 3}, {agreement.UseB, 64, 8}, {agreement.UseB, 128, 15},
		{agreement.UseA, 32, 3},
		{agreement.UseC, 16, 3}, {agreement.UseC, 24, 7},
	}
	for _, c := range cases {
		for _, advName := range []string{"none", "cascade"} {
			var adv sim.Adversary
			if advName == "cascade" {
				adv = adversary.NewCascade(3, c.f)
			}
			out, err := agreement.Run(agreement.Config{
				N: c.n, F: c.f, Value: 1, Protocol: c.proto,
			}, core.RunOptions{Adversary: adv, MaxActive: 1, DetailedMetrics: true})
			if err != nil {
				t.Err = fmt.Errorf("%v n=%d f=%d %s: %w", c.proto, c.n, c.f, advName, err)
				return t
			}
			_, agErr := out.Agreement()
			senders := float64(c.f + 1)
			var bound int64
			switch c.proto {
			case agreement.UseC:
				logT := max(group.CeilLog2(c.f+1), 1)
				bound = int64(c.n + c.f + 1 + 10*(c.f+1)*logT)
			default:
				bound = int64(float64(c.n) + senders + 1 + 10*senders*math.Sqrt(senders))
			}
			ok := agErr == nil
			t.Rows = append(t.Rows, []Cell{
				V(c.proto), V(c.n), V(c.f), V(advName),
				V(out.Result.Messages),
				B(out.Result.Messages, bound),
				V(out.Result.Rounds),
				{Value: fmt.Sprint(ok), OK: &ok},
			})
		}
	}
	return t
}
