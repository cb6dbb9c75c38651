package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/sharedmem"
	"repro/internal/sim"
)

var updateResults = flag.Bool("update-golden", false, "rewrite testdata/results.golden from the current protocol bodies")

const goldenPath = "testdata/results.golden"

// The results corpus: a fixed set of runs — every protocol body on the test
// grid, the deep takeover chains and Protocol D's revert, and the §5
// agreement and §1 bootstrap layers over A, B and C — each pinned to one
// line of testdata/results.golden: its Result fingerprint, event count,
// per-kind message counts, a hash of its full event trace, its error and,
// for the layered runs, their outcome. A change to any protocol body that
// moves a single commit of any run fails the corpus.

// corpusRow is one run of the corpus: run executes it under opt and returns
// its Result, the layered outcome column ("" for a bare protocol) and its
// error.
type corpusRow struct {
	name      string
	adv       func() sim.Adversary
	maxActive int
	run       func(opt core.RunOptions) (sim.Result, string, error)
}

// line runs the row once and renders it.
func (r corpusRow) line() string {
	h := fnv.New64a()
	opt := core.RunOptions{
		Adversary: r.adv(), MaxActive: r.maxActive, DetailedMetrics: true,
		Tracer: func(e sim.Event) { fmt.Fprintf(h, "%+v\n", e) },
	}
	res, out, err := r.run(opt)
	kinds := make([]string, 0, len(res.MessagesByKind))
	for k, v := range res.MessagesByKind {
		kinds = append(kinds, fmt.Sprintf("%s:%d", k, v))
	}
	slices.Sort(kinds)
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	line := fmt.Sprintf("%s fp=%016x events=%d kinds=%s trace=%016x err=%q",
		r.name, res.Fingerprint(), res.Events, strings.Join(kinds, ","), h.Sum64(), errText)
	if out != "" {
		line += " " + out
	}
	return line
}

// bodyRow runs a protocol body, with every broadcast expanded per send
// (sim.FlattenBroadcasts) when flat.
func bodyRow(name string, c core.GridCase, n, t int, adv func() sim.Adversary, flat bool) corpusRow {
	return corpusRow{name: name, adv: adv, maxActive: c.MaxActive,
		run: func(opt core.RunOptions) (sim.Result, string, error) {
			pr, err := c.Procs()
			if err != nil {
				return sim.Result{}, "", err
			}
			if st := pr.Steppers; flat {
				pr.Steppers = func(id int) sim.Stepper { return sim.FlattenBroadcasts(st(id)) }
			}
			res, err := core.RunProcs(n, t, pr, opt)
			return res, "", err
		}}
}

// gridSizes are the four (n, t) instances of the grid; n + t ≤ 61 keeps
// Protocol C's exponential deadlines finite.
var gridSizes = []struct{ n, t int }{{16, 4}, {24, 8}, {30, 7}, {144, 12}}

// gridRows are the runs of core's test grid on the grid sizes.
func gridRows(flat bool) []corpusRow {
	var rows []corpusRow
	for _, g := range gridSizes {
		for _, c := range core.GridCases(g.n, g.t) {
			for name, adv := range core.GridAdversaries(g.n, g.t) {
				rows = append(rows, bodyRow(fmt.Sprintf("%s/n=%d,t=%d/%s", c.Name, g.n, g.t, name), c, g.n, g.t, adv, flat))
			}
		}
	}
	return rows
}

// deepRows are the deep failures: a cascade of one unit per life forces
// maximal takeover chains in A and B, and a mass crash trips Protocol D's
// revert to Protocol A.
func deepRows() []corpusRow {
	n, t := 100, 10
	cases := core.GridCases(n, t)
	var rows []corpusRow
	for _, c := range cases[:3] {
		rows = append(rows, bodyRow(fmt.Sprintf("deep/%s/n=%d,t=%d/cascade-1", c.Name, n, t),
			c, n, t, func() sim.Adversary { return adversary.NewCascade(1, t-1) }, false))
	}
	for _, kill := range []int{5, 7} {
		rows = append(rows, bodyRow(fmt.Sprintf("deep/D/n=%d,t=%d/revert-%d", n, t, kill),
			cases[5], n, t, func() sim.Adversary {
				crashes := make([]adversary.Crash, 0, kill)
				for pid := t - kill; pid < t; pid++ {
					crashes = append(crashes, adversary.Crash{PID: pid, Round: 3})
				}
				return adversary.NewSchedule(crashes...)
			}, false))
	}
	return rows
}

// baselineRows are the §1–§3 baselines on the grid sizes under the grid
// adversaries: single-checkpoint, uniform at K = 1, 4 and t, and naive;
// naive under its §3 cascade; and one crash-restart row per baseline, whose
// victim stays crashed because the baselines are not sim.Recoverable.
func baselineRows() []corpusRow {
	var rows []corpusRow
	for _, g := range gridSizes {
		n, t := g.n, g.t
		build := func(proto string, k int) func() (core.Procs, error) {
			return func() (core.Procs, error) {
				p, _ := core.LookupProtocol(proto)
				return p.Build(n, t, core.Params{K: k})
			}
		}
		cases := []core.GridCase{
			{Name: "single-checkpoint", Procs: build("single-checkpoint", 0), MaxActive: 1},
			{Name: "uniform-1", Procs: build("uniform", 1), MaxActive: 1},
			{Name: "uniform-4", Procs: build("uniform", 4), MaxActive: 1},
			{Name: "uniform-t", Procs: build("uniform", t), MaxActive: 1},
			{Name: "naive", Procs: build("naive", 0), MaxActive: 1},
		}
		for _, c := range cases {
			for name, adv := range core.GridAdversaries(n, t) {
				rows = append(rows, bodyRow(fmt.Sprintf("baseline/%s/n=%d,t=%d/%s", c.Name, n, t, name), c, n, t, adv, false))
			}
		}
		rows = append(rows, bodyRow(fmt.Sprintf("baseline/naive/n=%d,t=%d/naive-cascade", n, t), cases[4], n, t,
			func() sim.Adversary { return core.NewNaiveCascadeAdversary(n, t) }, false))
		if g == gridSizes[0] {
			for _, c := range []core.GridCase{cases[0], cases[2], cases[4]} {
				rows = append(rows, bodyRow(fmt.Sprintf("baseline/%s/n=%d,t=%d/restart", c.Name, n, t), c, n, t,
					func() sim.Adversary {
						return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 3, RestartAt: 12})
					}, false))
			}
		}
	}
	return rows
}

// dynamicRows run §4's dynamic-work variant at F7's three shapes, with
// F7's crashes of high sites and with random crashes. The f7-N rows keep
// the first F7 schedule (rounds 30, 34, …), which mostly falls after the
// run's end; the f7-last-work-N rows are F7's schedule, every victim
// crashing in the last round of work of the failure-free run.
func dynamicRows() []corpusRow {
	var rows []corpusRow
	seen := make(map[string]bool)
	for _, c := range []struct {
		n, t, phases, crashes int
		lastWork              int64 // the failure-free run's last round of work
	}{{64, 8, 5, 0, 18}, {64, 8, 5, 3, 18}, {128, 16, 7, 6, 28}} {
		inj := make([]dynamic.Injection, c.n)
		for u := 1; u <= c.n; u++ {
			inj[u-1] = dynamic.Injection{Phase: 1 + (u-1)%(c.phases-1), Process: (u - 1) % c.t, Unit: u}
		}
		cfg := dynamic.Config{T: c.t, Units: c.n, Phases: c.phases, Injections: inj}
		advs := map[string]func() sim.Adversary{
			fmt.Sprintf("f7-%d", c.crashes): func() sim.Adversary {
				var crashes []adversary.Crash
				for k := 0; k < c.crashes; k++ {
					crashes = append(crashes, adversary.Crash{PID: c.t - 1 - k, Round: int64(30 + 4*k)})
				}
				return adversary.NewSchedule(crashes...)
			},
			"random-7": func() sim.Adversary { return adversary.NewRandom(0.05, c.t-1, 7) },
		}
		if c.crashes > 0 {
			advs[fmt.Sprintf("f7-last-work-%d", c.crashes)] = func() sim.Adversary {
				var crashes []adversary.Crash
				for k := 0; k < c.crashes; k++ {
					crashes = append(crashes, adversary.Crash{PID: c.t - 1 - k, Round: c.lastWork})
				}
				return adversary.NewSchedule(crashes...)
			}
		}
		shape := fmt.Sprintf("dynamic/n=%d,t=%d,phases=%d", c.n, c.t, c.phases)
		if seen[shape] {
			delete(advs, "random-7")
		} else {
			// F7's crashes can come after the run ends; these land inside
			// it: three sites crash during agreement, and site 0 crashes
			// mid-broadcast, reaching only its first two recipients.
			advs["early-3"] = func() sim.Adversary {
				return adversary.NewSchedule(adversary.Crash{PID: c.t - 1, Round: 4},
					adversary.Crash{PID: c.t - 2, Round: 9}, adversary.Crash{PID: c.t - 3, Round: 14})
			}
			advs["midcast"] = func() sim.Adversary {
				return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 2, Deliver: []bool{true, true}})
			}
			// A site crashes in the first work period and restarts from its
			// checkpoint two rounds later.
			advs["restart"] = func() sim.Adversary {
				return adversary.NewSchedule(adversary.Crash{PID: 1, AtAction: 5, KeepWork: true, RestartAt: 9})
			}
		}
		seen[shape] = true
		for name, adv := range advs {
			rows = append(rows, corpusRow{name: shape + "/" + name,
				adv: adv,
				run: func(opt core.RunOptions) (sim.Result, string, error) {
					steppers, err := dynamic.Steppers(cfg)
					if err != nil {
						return sim.Result{}, "", err
					}
					res, err := core.RunSteppers(cfg.Units, cfg.T, steppers, opt)
					return res, "", err
				}})
		}
	}
	return rows
}

// sharedmemRows run §1.1's shared-memory Write-All; the outcome column
// holds its register reads and writes.
func sharedmemRows() []corpusRow {
	var rows []corpusRow
	for _, s := range []struct{ n, t int }{{16, 4}, {64, 16}} {
		cfg := sharedmem.Config{N: s.n, T: s.t}
		advs := map[string]func() sim.Adversary{
			"none":     func() sim.Adversary { return nil },
			"cascade":  func() sim.Adversary { return adversary.NewCascade(1, s.t-1) },
			"random-7": func() sim.Adversary { return adversary.NewRandom(0.05, s.t-1, 7) },
			// The cascade crashes only senders, and Write-All sends
			// nothing; this crash lands between a unit and its write.
			"keepwork": func() sim.Adversary {
				return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 4, KeepWork: true})
			},
			// F5's plan: PIDs 0..t−2 each crash at their second action,
			// keeping its unit.
			"f5": func() sim.Adversary {
				plan := make([]adversary.Crash, s.t-1)
				for pid := range plan {
					plan[pid] = adversary.Crash{PID: pid, AtAction: 2, KeepWork: true}
				}
				return adversary.NewSchedule(plan...)
			},
		}
		for name, adv := range advs {
			rows = append(rows, corpusRow{name: fmt.Sprintf("sharedmem/n=%d,t=%d/%s", s.n, s.t, name),
				adv: adv, maxActive: 1,
				run: func(opt core.RunOptions) (sim.Result, string, error) {
					mem, steppers, err := sharedmem.Steppers(cfg)
					if err != nil {
						return sim.Result{}, "", err
					}
					res, err := core.RunSteppers(cfg.N, cfg.T, steppers, opt)
					reads, writes := mem.Ops()
					return res, fmt.Sprintf("reads=%d writes=%d", reads, writes), err
				}})
		}
	}
	return rows
}

// layeredAdversaries are the adversaries of the agreement and bootstrap
// rows over f tolerated failures: a general cut off after reaching its
// first k senders, a general that crashes mid-work keeping its unit, sender
// cascades, random crashes and message loss.
func layeredAdversaries(f int) map[string]func() sim.Adversary {
	advs := map[string]func() sim.Adversary{
		"none":    func() sim.Adversary { return nil },
		"cascade": func() sim.Adversary { return adversary.NewCascade(2, f) },
		"keepwork": func() sim.Adversary {
			return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 5, KeepWork: true})
		},
		"loss-7": func() sim.Adversary { return adversary.NewLoss(0.05, f, 7) },
	}
	for k := 0; k <= 3; k++ {
		advs[fmt.Sprintf("general-%d", k)] = func() sim.Adversary {
			deliver := make([]bool, f)
			for i := 0; i < k && i < f; i++ {
				deliver[i] = true
			}
			return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 1, Deliver: deliver})
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		advs[fmt.Sprintf("random-%d", seed)] = func() sim.Adversary { return adversary.NewRandom(0.05, f, seed) }
	}
	return advs
}

// layeredRows run agreement over A, B and C and bootstrap over A and B.
func layeredRows() []corpusRow {
	var rows []corpusRow
	for _, proto := range []agreement.WorkProtocol{agreement.UseA, agreement.UseB, agreement.UseC} {
		for _, s := range []struct{ n, f int }{{8, 0}, {10, 3}, {16, 4}} {
			cfg := agreement.Config{N: s.n, F: s.f, Value: 7, Protocol: proto}
			for name, adv := range layeredAdversaries(s.f) {
				rows = append(rows, corpusRow{name: fmt.Sprintf("agreement/%v/n=%d,f=%d/%s", proto, s.n, s.f, name),
					adv: adv, maxActive: 1,
					run: func(opt core.RunOptions) (sim.Result, string, error) {
						out, err := agreement.Run(cfg, opt)
						ds := make([]string, len(out.Decisions))
						for i, d := range out.Decisions {
							ds[i] = fmt.Sprint(d)
						}
						return out.Result, "decisions=" + strings.Join(ds, ","), err
					}})
			}
		}
	}
	for _, proto := range []agreement.WorkProtocol{agreement.UseA, agreement.UseB} {
		for _, s := range []struct{ n, t, f int }{{8, 4, 0}, {16, 8, 3}, {32, 6, 5}} {
			pool := make([]int, s.n)
			for i := range pool {
				pool[i] = i + 1
			}
			cfg := bootstrap.Config{Pool: pool, T: s.t, F: s.f, Protocol: proto}
			for name, adv := range layeredAdversaries(s.f) {
				rows = append(rows, corpusRow{name: fmt.Sprintf("bootstrap/%v/pool=%d,t=%d,f=%d/%s", proto, s.n, s.t, s.f, name),
					adv: adv, maxActive: 1,
					run: func(opt core.RunOptions) (sim.Result, string, error) {
						out, err := bootstrap.Run(cfg, opt)
						return out.Sim, fmt.Sprintf("pool=%t stage1end=%d", out.PoolAgreed, out.Stage1End), err
					}})
			}
		}
	}
	return rows
}

// golden reads the golden file, keyed by row name, checking that its lines
// are sorted and their names unique.
func golden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if !slices.IsSorted(lines) {
		t.Fatalf("%s is not sorted", goldenPath)
	}
	rows := make(map[string]string, len(lines))
	for _, l := range lines {
		name, _, _ := strings.Cut(l, " ")
		if _, dup := rows[name]; dup {
			t.Fatalf("%s names row %s twice", goldenPath, name)
		}
		rows[name] = l
	}
	return rows
}

// replay runs each row as a subtest, named by subtest, and holds its line
// to the golden file's.
func replay(t *testing.T, rows []corpusRow, subtest func(corpusRow) string) {
	want := golden(t)
	for _, r := range rows {
		t.Run(subtest(r), func(t *testing.T) {
			if got := r.line(); got != want[r.name] {
				t.Fatalf("golden: %s\nnow:    %s", want[r.name], got)
			}
		})
	}
}

// TestResultsGolden holds the golden file to the corpus — it must name
// exactly the corpus's rows — and replays the layered rows; the protocol
// bodies' rows replay in the tests below. The file is the protocols'
// behaviour, not a snapshot to refresh: a change that moves any line is a
// behaviour change to justify, and -update-golden rewrites the file only
// after one.
func TestResultsGolden(t *testing.T) {
	layered := layeredRows()
	all := append(append(gridRows(false), deepRows()...), layered...)
	all = append(all, baselineRows()...)
	all = append(all, dynamicRows()...)
	all = append(all, sharedmemRows()...)
	if *updateResults {
		lines := make([]string, len(all))
		for i, r := range all {
			lines[i] = r.line()
		}
		slices.Sort(lines)
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := golden(t)
	for _, r := range all {
		if _, ok := want[r.name]; !ok {
			t.Errorf("row %s is not in %s", r.name, goldenPath)
		}
		delete(want, r.name)
	}
	for name := range want {
		t.Errorf("%s holds row %s, which the corpus no longer runs", goldenPath, name)
	}
	replay(t, layered, func(r corpusRow) string { return r.name })
}

// TestSubstrateEquivalence replays the grid rows. They are the results the
// script substrate and the Steppers both produced when every protocol also
// had a hand-written script copy, so a Stepper that reproduces its row
// still matches the retired script exactly.
func TestSubstrateEquivalence(t *testing.T) {
	replay(t, gridRows(false), func(r corpusRow) string { return r.name })
}

// TestSubstrateEquivalenceDeepFailures replays the deep-failure rows in the
// same way.
func TestSubstrateEquivalenceDeepFailures(t *testing.T) {
	replay(t, deepRows(), func(r corpusRow) string {
		parts := strings.Split(r.name, "/")
		if parts[1] == "D" {
			return "D-" + parts[3]
		}
		return parts[1]
	})
}

// TestBroadcastPlaneEquivalence replays the grid rows with every broadcast
// expanded per send (sim.FlattenBroadcasts, the reference semantics): the
// broadcast record plane must be invisible in every line, crash-mid-broadcast
// subset verdicts included, which apply per recipient against the shared
// record on the native plane.
func TestBroadcastPlaneEquivalence(t *testing.T) {
	replay(t, gridRows(true), func(r corpusRow) string { return r.name })
}

// TestBaselinesGolden replays the rows of the bodies outside the protocol
// grid: the §1–§3 baselines, §4's dynamic-work variant and §1.1's
// shared-memory Write-All.
func TestBaselinesGolden(t *testing.T) {
	rows := append(append(baselineRows(), dynamicRows()...), sharedmemRows()...)
	replay(t, rows, func(r corpusRow) string { return r.name })
}
