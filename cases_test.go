package doall_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/adversary"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// The Engine*, Live*, Sweep* and Explore* cases, declared once. Each
// Benchmark* function of the same name (bench_test.go) runs one for
// profiling; TestAllocBudgets pins what a run allocates and counts;
// BenchmarkLiveEngineGap times every Live case against its Engine twin.
// The costs of the system end to end are the benchmark/ harness's job: a
// case here measures one path in isolation.

// tally is what one run of a case counts. Every field is deterministic, so
// a budget can pin it exactly.
type tally struct {
	events     int64 // Result.Events, summed over a sweep's jobs
	schedules  int64 // explore.Report.Schedules
	engineRuns int64 // explore.Report.EngineRuns
}

// benchCase is one workload and its tier-1 budget.
type benchCase struct {
	name string
	// run executes the workload once. It fails on an error, an incomplete
	// run with survivors, or a certification violation.
	run func() (tally, error)
	// allocs is the budget of heap allocations per run and want the tally
	// every run must return, both checked by TestAllocBudgets. A case with
	// allocs 0 is a benchmark only.
	allocs float64
	want   tally
	// twin and gap, on a Live case: the Engine case that runs the same
	// workload, and the bound BenchmarkLiveEngineGap puts on the ratio of
	// their run times.
	twin string
	gap  float64
}

// engineRun runs cfg on the engine, with failures built fresh per run
// (adversaries are stateful).
func engineRun(cfg doall.Config, failures func() doall.Failures) func() (tally, error) {
	return func() (tally, error) {
		if failures != nil {
			cfg.Failures = failures()
		}
		res, err := doall.Run(cfg)
		if err == nil && res.Survivors > 0 && !res.Complete {
			err = errors.New("incomplete run with survivors")
		}
		return tally{events: res.Events}, err
	}
}

// liveRun runs fresh steppers on the live plane over the channel transport.
func liveRun(cfg live.Config, steppers func() (func(int) sim.Stepper, error), adv func() sim.Adversary) func() (tally, error) {
	return func() (tally, error) {
		s, err := steppers()
		if err != nil {
			return tally{}, err
		}
		cfg.Adversary = adv()
		res, err := live.Run(cfg, s)
		if err == nil && res.Survivors > 0 && !res.Complete() {
			err = errors.New("incomplete run with survivors")
		}
		return tally{events: res.Events}, err
	}
}

// sweepRun executes a whole job list on one worker of the pooled batch
// runner, so a run's allocations are the sweep's per-job setup cost.
func sweepRun(jobs []batch.Job) func() (tally, error) {
	return func() (tally, error) {
		var tl tally
		for _, r := range batch.Run(jobs, batch.Options{Workers: 1}) {
			if r.Err != nil {
				return tl, fmt.Errorf("%s: %w", r.Name, r.Err)
			}
			if r.GuaranteeViolated() {
				return tl, fmt.Errorf("%s: guarantee violated", r.Name)
			}
			tl.events += r.Result.Events
		}
		return tl, nil
	}
}

// exploreRun certifies a whole schedule space on one walker.
func exploreRun(protocol string, n, t, crashes, depth, prefix int, full bool) func() (tally, error) {
	return func() (tally, error) {
		target, err := explore.NewTarget(protocol, n, t, crashes)
		if err != nil {
			return tally{}, err
		}
		rep, err := target.Enumerate(explore.NewSpace(t, crashes, depth, prefix), explore.Options{Jobs: 1, Full: full})
		if err == nil && rep.ViolationCount > 0 {
			err = fmt.Errorf("%d violations", rep.ViolationCount)
		}
		return tally{schedules: rep.Schedules, engineRuns: rep.EngineRuns}, err
	}
}

func cascade() doall.Failures { return doall.CascadeFailures(16, 15) }

// storm is the whole fault alphabet in one Protocol B run: a kept-work
// action crash, a round crash that later restarts, seeded message loss and
// a slow worker.
func storm() doall.Failures {
	return doall.CombinedFailures(
		doall.ScheduledFailures(
			doall.Crash{Process: 3, AtAction: 9, KeepWork: true},
			doall.Crash{Process: 0, Round: 40, RestartAt: 80},
			doall.Crash{Process: 5, Round: 120},
		),
		doall.LossyFailures(0.05, 16, 11),
		doall.SlowdownFailures(1, 30, 3),
	)
}

// stormAdversary is storm in the adversary vocabulary the live plane takes.
func stormAdversary() sim.Adversary {
	return adversary.NewChain(
		adversary.NewSchedule(
			adversary.Crash{PID: 3, AtAction: 9, KeepWork: true},
			adversary.Crash{PID: 0, Round: 40, RestartAt: 80},
			adversary.Crash{PID: 5, Round: 120},
		),
		adversary.NewLoss(0.05, 16, 11),
		&adversary.Slowdown{PID: 1, Round: 30, Factor: 3},
	)
}

func liveCascade() sim.Adversary { return adversary.NewCascade(16, 15) }

func protocolBSteppers() (func(int) sim.Stepper, error) {
	return core.SteppersFor(core.ProtocolBProcs(core.ABConfig{N: 256, T: 16}))
}

// benchCases returns the case table. An allocation budget is the value
// measured when it was set plus about 10 % (at least 4), which covers a run
// that finds the engine pool drained by a GC; a tally is exact.
func benchCases() []benchCase {
	return []benchCase{
		{
			name:   "EngineProtocolB",
			run:    engineRun(doall.Config{Units: 256, Workers: 16, Protocol: doall.ProtocolB}, cascade),
			allocs: 30, want: tally{events: 713},
		},
		{
			name: "EngineProtocolD",
			run: engineRun(doall.Config{Units: 256, Workers: 16, Protocol: doall.ProtocolD},
				func() doall.Failures { return doall.RandomFailures(0.01, 15, 9) }),
			allocs: 51, want: tally{events: 383},
		},
		{
			// Exponential nominal rounds, tiny event count: the fast-forward
			// path.
			name:   "EngineProtocolCFastForward",
			run:    engineRun(doall.Config{Units: 24, Workers: 8, Protocol: doall.ProtocolC}, nil),
			allocs: 104, want: tally{events: 186},
		},
		{
			name: "EngineLargeT",
			run: engineRun(doall.Config{Units: 1024, Workers: 256, Protocol: doall.ProtocolB},
				func() doall.Failures { return doall.CascadeFailures(4, 255) }),
			allocs: 66, want: tally{events: 7265},
		},
		{
			// Failure-free Protocol D at t=64: every agreement round is a
			// 63-recipient broadcast per process, the broadcast record plane
			// under maximal fanout.
			name:   "EngineBroadcastFanout",
			run:    engineRun(doall.Config{Units: 512, Workers: 64, Protocol: doall.ProtocolD}, nil),
			allocs: 63, want: tally{events: 704},
		},
		{
			name:   "EngineFaultStorm",
			run:    engineRun(doall.Config{Units: 256, Workers: 16, Protocol: doall.ProtocolB}, storm),
			allocs: 81, want: tally{events: 983},
		},
		{
			// The successor protocol: leader-free epoch gossip, every process
			// working concurrently, through a crash cascade. The point-to-point
			// counterweight to the broadcast-heavy A–D cases.
			name:   "EngineGossip",
			run:    engineRun(doall.Config{Units: 256, Workers: 16, Protocol: doall.Gossip}, cascade),
			allocs: 50, want: tally{events: 609},
		},
		{
			// The same run under the congested-clique cap of half the fanout:
			// every epoch's rumor overflow goes through the deferred-send queue.
			name: "EngineGossipCapped",
			run: engineRun(doall.Config{
				Units: 256, Workers: 16, Protocol: doall.Gossip,
				Bandwidth: (core.GossipFanout(16) + 1) / 2,
			}, cascade),
			allocs: 50, want: tally{events: 625},
		},
		{
			name: "LiveProtocolB",
			run: liveRun(live.Config{NumProcs: 16, NumUnits: 256, MaxActive: 1},
				protocolBSteppers, liveCascade),
			allocs: 43, want: tally{events: 713},
			twin: "EngineProtocolB", gap: 7.76,
		},
		{
			name: "LiveProtocolD",
			run: liveRun(live.Config{NumProcs: 16, NumUnits: 256},
				func() (func(int) sim.Stepper, error) {
					return core.ProtocolDSteppers(core.DConfig{N: 256, T: 16})
				},
				func() sim.Adversary { return adversary.NewRandom(0.01, 15, 9) }),
			allocs: 65, want: tally{events: 383},
			twin: "EngineProtocolD", gap: 4.69,
		},
		{
			// No MaxActive invariant: the slowed worker legitimately overlaps
			// its successor.
			name:   "LiveFaultStorm",
			run:    liveRun(live.Config{NumProcs: 16, NumUnits: 256}, protocolBSteppers, stormAdversary),
			allocs: 90, want: tally{events: 983},
			twin: "EngineFaultStorm", gap: 4.08,
		},
		{
			name: "LiveGossip",
			run: liveRun(live.Config{NumProcs: 16, NumUnits: 256},
				func() (func(int) sim.Stepper, error) {
					return core.SteppersFor(core.GossipProcs(core.GossipConfig{N: 256, T: 16}))
				},
				liveCascade),
			allocs: 64, want: tally{events: 609},
			twin: "EngineGossip", gap: 6.82,
		},
		{
			name: "SweepReuseSmall",
			run: sweepRun(batch.Sweep{
				Protocols: []doall.Protocol{doall.ProtocolA, doall.ProtocolB, doall.ProtocolD},
				Failures: []batch.FailureSpec{
					batch.NoFailureSpec(), batch.CascadeFailureSpec(), batch.RandomFailureSpec(0.02),
				},
				Grid:  []batch.GridPoint{{Units: 96, Workers: 8}, {Units: 192, Workers: 16}},
				Seeds: []int64{1, 2},
			}.Jobs()),
			allocs: 1305, want: tally{events: 10498},
		},
		{
			// Protocol B at the acceptance-criterion instance, walked raw.
			name:   "ExploreSmall",
			run:    exploreRun("b", 8, 3, 2, 8, 2, false),
			allocs: 1442, want: tally{schedules: 7057, engineRuns: 859},
		},
		{
			// The symmetric trivial baseline at certification scale: 459 361
			// raw schedules walked as canonical orbit representatives.
			name:   "ExploreLarge",
			run:    exploreRun("trivial", 4, 8, 3, 10, 0, false),
			allocs: 217, want: tally{schedules: 459361, engineRuns: 397},
		},
		{
			// The same space walked raw, so ExploreLarge against it is the
			// symmetry reduction's win. At over a second a run it stays a
			// benchmark.
			name: "ExploreLargeFull",
			run:  exploreRun("trivial", 4, 8, 3, 10, 0, true),
		},
	}
}

// lookupCase returns the named case of the table.
func lookupCase(tb testing.TB, cases []benchCase, name string) benchCase {
	tb.Helper()
	for _, c := range cases {
		if c.name == name {
			return c
		}
	}
	tb.Fatalf("unknown case %q", name)
	return benchCase{}
}

// benchCaseNamed runs the named case b.N times and reports its allocations
// and its count per run: schedules/sec for an Explore case, events/op
// otherwise.
func benchCaseNamed(b *testing.B, name string) {
	b.Helper()
	c := lookupCase(b, benchCases(), name)
	b.ReportAllocs()
	var events, schedules int64
	for i := 0; i < b.N; i++ {
		got, err := c.run()
		if err != nil {
			b.Fatal(c.name, ": ", err)
		}
		events, schedules = got.events, schedules+got.schedules
	}
	if schedules > 0 {
		b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/sec")
	} else {
		b.ReportMetric(float64(events), "events/op")
	}
}

// TestAllocBudgets pins, for every budgeted case, its heap allocations per
// run and its exact tally. Counts are deterministic where costs are not, so
// this is the tier-1 half of the case table: one allocation added per Step
// of any protocol here fails it, and so does a pruning regression in the
// Explore cases (their Schedules and EngineRuns are pinned).
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, c := range benchCases() {
		if c.allocs == 0 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			// A run's count depends on the engine it draws from the pool:
			// the first run on a cold or smaller engine fills it (B at
			// 1024×256 under a cascade allocates 2 297, then 36, then 36 on a
			// fresh engine). Each sample follows a warm-up run, and the fewest
			// over the samples is a warm run's count; an allocation added to
			// every run raises them all.
			var got tally
			var err error
			allocs := math.Inf(1)
			for range allocSamples {
				allocs = min(allocs, testing.AllocsPerRun(1, func() {
					if err == nil {
						got, err = c.run()
					}
				}))
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocations per run", allocs)
			if got != c.want {
				t.Errorf("tally %+v, want %+v", got, c.want)
			}
			if allocs > c.allocs {
				t.Errorf("%.0f allocations per run, budget %.0f", allocs, c.allocs)
			}
		})
	}
}

// allocSamples is how many warm runs TestAllocBudgets measures per case.
const allocSamples = 5

// Gap check windows: each side of a pair runs gapRuns times back to back
// per window, and the windows alternate between the two sides, so a slow
// spell of the machine hits both. Every window starts from a fresh GC
// cycle, so neither side pays for the other's garbage, and one untimed
// window per side warms it first.
//
// The live plane's barrier is bimodal: a process can run its live windows
// at twice the fast mode's time for a while, and a ratio read only then
// overstates the gap by that factor. The check therefore times at least
// gapMinWindows windows and, while the ratio is over its bound, keeps
// timing more for up to gapExtra. A slower live plane slows every window
// and still fails.
const (
	gapRuns       = 20
	gapMinWindows = 7
	gapExtra      = 2 * time.Second
)

// BenchmarkLiveEngineGap is the live/engine gap check. For every Live case
// it times the case and its Engine twin in alternating windows in this one
// process, and fails when the fastest live window over the fastest engine
// window exceeds the case's gap bound. A ratio within one process cancels
// the machine's speed and most of its drift, so the check means the same
// on any box. Each bound is the ratio the case's last recorded baseline
// showed, plus 15 %, so a revert of the barrier's speed-up fails. Each
// sub-benchmark reports the ratio it measured and the windows it took.
func BenchmarkLiveEngineGap(b *testing.B) {
	cases := benchCases()
	for _, lc := range cases {
		if lc.twin == "" {
			continue
		}
		ec := lookupCase(b, cases, lc.twin)
		b.Run(lc.name, func(b *testing.B) {
			var ratio float64
			var windows int
			for i := 0; i < b.N; i++ {
				ratio, windows = gapRatio(b, ec, lc)
				if ratio > lc.gap {
					b.Fatalf("%s: live/engine time ratio %.2f over %s after %d windows exceeds its bound %.2f",
						lc.name, ratio, ec.name, windows, lc.gap)
				}
			}
			b.ReportMetric(ratio, "live/engine")
			b.ReportMetric(float64(windows), "windows")
		})
	}
}

// gapRatio returns the fastest window of lc over the fastest window of ec,
// and the number of window pairs it timed.
func gapRatio(b *testing.B, ec, lc benchCase) (float64, int) {
	b.Helper()
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	ratio := math.Inf(1)
	var extraFrom time.Time
	w := -1
	for ; w < gapMinWindows || (ratio > lc.gap && time.Since(extraFrom) < gapExtra); w++ {
		for k, c := range [2]benchCase{ec, lc} {
			runtime.GC()
			start := time.Now()
			for r := 0; r < gapRuns; r++ {
				if _, err := c.run(); err != nil {
					b.Fatal(c.name, ": ", err)
				}
			}
			if w >= 0 {
				best[k] = min(best[k], time.Since(start))
			}
		}
		if w >= 0 {
			ratio = float64(best[1]) / float64(best[0])
		}
		if w == gapMinWindows-1 {
			extraFrom = time.Now()
		}
	}
	return ratio, w
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
