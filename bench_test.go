// Benchmarks, one per experiment in DESIGN.md's index (T1–T9, F1–F7,
// X1–X6): each run regenerates the corresponding EXPERIMENTS.md table and
// fails if any paper bound is violated, so `go test -bench=.` re-verifies
// the whole reproduction. The Suite* benchmarks run the whole deterministic
// suite through the internal/batch fan-out runner (sequential vs all-cores
// measures the orchestration speedup); the Engine*, Live*, Sweep* and
// Explore* benchmarks run the case table of cases_test.go.
package doall_test

import (
	"testing"

	"repro"
	"repro/internal/batch"
	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, run func() experiments.Table) {
	b.Helper()
	rows := 0
	for i := 0; i < b.N; i++ {
		t := run()
		if t.Err != nil {
			b.Fatal(t.Err)
		}
		if f := t.Failures(); f > 0 {
			b.Fatalf("%d paper-bound failures", f)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkT1_ProtocolA(b *testing.B) { benchExperiment(b, experiments.T1ProtocolA) }
func BenchmarkT2_ProtocolB(b *testing.B) { benchExperiment(b, experiments.T2ProtocolB) }
func BenchmarkT3_ProtocolC(b *testing.B) { benchExperiment(b, experiments.T3ProtocolC) }
func BenchmarkT4_ProtocolCLowMsg(b *testing.B) {
	benchExperiment(b, experiments.T4ProtocolCLowMsg)
}
func BenchmarkT5_ProtocolD(b *testing.B)       { benchExperiment(b, experiments.T5ProtocolD) }
func BenchmarkT6_ProtocolDRevert(b *testing.B) { benchExperiment(b, experiments.T6ProtocolDRevert) }
func BenchmarkT7_ProtocolDFailureFree(b *testing.B) {
	benchExperiment(b, experiments.T7ProtocolDFailureFree)
}
func BenchmarkT8_Agreement(b *testing.B) { benchExperiment(b, experiments.T8Agreement) }
func BenchmarkT9_Bootstrap(b *testing.B) { benchExperiment(b, experiments.T9Bootstrap) }

func BenchmarkF1_CheckpointFrequency(b *testing.B) {
	benchExperiment(b, experiments.F1CheckpointFrequency)
}
func BenchmarkF2_NaiveVsC(b *testing.B) { benchExperiment(b, experiments.F2NaiveVsC) }
func BenchmarkF3_EffortComparison(b *testing.B) {
	benchExperiment(b, experiments.F3EffortComparison)
}
func BenchmarkF4_TimeDegradation(b *testing.B) {
	benchExperiment(b, experiments.F4TimeDegradation)
}
func BenchmarkF5_SharedMemoryWriteAll(b *testing.B) {
	benchExperiment(b, experiments.F5SharedMemory)
}
func BenchmarkF6_AsyncProtocolA(b *testing.B) {
	benchExperiment(b, experiments.F6AsyncProtocolA)
}
func BenchmarkF7_DynamicWork(b *testing.B) { benchExperiment(b, experiments.F7DynamicWork) }

func BenchmarkX1_FastForward(b *testing.B) { benchExperiment(b, experiments.X1FastForward) }
func BenchmarkX2_PartialCheckpointAblation(b *testing.B) {
	benchExperiment(b, experiments.X2PartialCheckpointAblation)
}
func BenchmarkX3_RevertThreshold(b *testing.B) {
	benchExperiment(b, experiments.X3RevertThreshold)
}
func BenchmarkX4_ScheduleSpace(b *testing.B) {
	benchExperiment(b, experiments.X4ScheduleSpace)
}
func BenchmarkX5_FaultSurvival(b *testing.B) {
	benchExperiment(b, experiments.X5FaultSurvival)
}
func BenchmarkX6_CertificationAtScale(b *testing.B) {
	benchExperiment(b, experiments.X6CertificationAtScale)
}

// Suite benchmarks: the full deterministic experiment suite through the
// batch runner. Comparing Sequential vs Parallel measures the fan-out
// speedup on the machine at hand.

func benchSuite(b *testing.B, workers int) {
	b.Helper()
	exps := experiments.Deterministic()
	for i := 0; i < b.N; i++ {
		tables := experiments.Run(exps, workers)
		if f := experiments.TotalFailures(tables); f > 0 {
			b.Fatalf("%d paper-bound failures", f)
		}
	}
}

func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B)   { benchSuite(b, 0) }

// BenchmarkSweepParallel runs a protocol × failure × grid sweep through the
// batch runner at full width; jobs are rebuilt-free (NewFailures rebuilds
// only the stateful adversary per run).
func BenchmarkSweepParallel(b *testing.B) {
	jobs := batch.Sweep{
		Protocols: []doall.Protocol{doall.ProtocolA, doall.ProtocolB, doall.ProtocolD},
		Failures: []batch.FailureSpec{
			batch.NoFailureSpec(), batch.CascadeFailureSpec(), batch.RandomFailureSpec(0.02),
		},
		Grid:  []batch.GridPoint{{Units: 64, Workers: 8}, {Units: 256, Workers: 16}},
		Seeds: []int64{1, 2},
	}.Jobs()
	b.ReportMetric(float64(len(jobs)), "jobs")
	for i := 0; i < b.N; i++ {
		for _, r := range batch.Run(jobs, batch.Options{}) {
			if r.Err != nil {
				b.Fatal(r.Name, r.Err)
			}
			if r.GuaranteeViolated() {
				b.Fatal(r.Name, "guarantee violated")
			}
		}
	}
}

// The Engine*, Sweep*, Explore* and Live* benchmarks run the cases of
// cases_test.go, one per function, for profiling (-cpuprofile,
// -memprofile). TestAllocBudgets pins their allocations and counts in
// tier-1, and BenchmarkLiveEngineGap checks the live/engine gap; the
// benchmark/ harness measures the system end to end.

func BenchmarkEngineProtocolB(b *testing.B) { benchCaseNamed(b, "EngineProtocolB") }

func BenchmarkEngineProtocolD(b *testing.B) { benchCaseNamed(b, "EngineProtocolD") }

func BenchmarkEngineProtocolCFastForward(b *testing.B) {
	benchCaseNamed(b, "EngineProtocolCFastForward")
}

func BenchmarkEngineLargeT(b *testing.B) { benchCaseNamed(b, "EngineLargeT") }

func BenchmarkEngineBroadcastFanout(b *testing.B) { benchCaseNamed(b, "EngineBroadcastFanout") }

func BenchmarkEngineFaultStorm(b *testing.B) { benchCaseNamed(b, "EngineFaultStorm") }

func BenchmarkEngineGossip(b *testing.B) { benchCaseNamed(b, "EngineGossip") }

func BenchmarkEngineGossipCapped(b *testing.B) { benchCaseNamed(b, "EngineGossipCapped") }

// BenchmarkSweepReuse measures pooled engine reuse across a whole job sweep
// on one worker (allocs/op ≈ total per-run setup cost).
func BenchmarkSweepReuse(b *testing.B) { benchCaseNamed(b, "SweepReuseSmall") }

// BenchmarkExploreSmall measures schedule-space certification throughput
// (schedules/sec): one op exhaustively walks and certifies the Protocol B
// schedule space at the acceptance-criterion instance.
func BenchmarkExploreSmall(b *testing.B) { benchCaseNamed(b, "ExploreSmall") }

// BenchmarkExploreLarge is ExploreSmall's certification-scale sibling: a
// ~65x larger space on the symmetric trivial baseline, walked in canonical
// mode (orbit representatives + prefix-equivalence pruning). ExploreLargeFull
// walks the same space raw, so the pair's schedules/sec ratio isolates the
// symmetry-reduction win.
func BenchmarkExploreLarge(b *testing.B) { benchCaseNamed(b, "ExploreLarge") }

func BenchmarkExploreLargeFull(b *testing.B) { benchCaseNamed(b, "ExploreLargeFull") }

// The Live* cases run the workloads of their Engine* twins over real
// goroutines and the channel transport; the delta is the barrier's cost per
// run.

func BenchmarkLiveProtocolB(b *testing.B) { benchCaseNamed(b, "LiveProtocolB") }

func BenchmarkLiveProtocolD(b *testing.B) { benchCaseNamed(b, "LiveProtocolD") }

func BenchmarkLiveFaultStorm(b *testing.B) { benchCaseNamed(b, "LiveFaultStorm") }

func BenchmarkLiveGossip(b *testing.B) { benchCaseNamed(b, "LiveGossip") }

func BenchmarkAgreementViaB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := doall.RunAgreement(doall.AgreementConfig{
			Processes: 64, Faults: 8, Value: 1, Protocol: doall.ProtocolB,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Value != 1 {
			b.Fatal("validity broken")
		}
	}
}
