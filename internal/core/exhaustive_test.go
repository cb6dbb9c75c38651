package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// Exhaustive crash-schedule sweeps, driven by the internal/explore
// subsystem: each test describes its schedule space as an explore.Space and
// certifies the completion guarantee and the at-most-one-active invariant
// (plus any declared bounds) in every single execution. The spaces are
// supersets of the hand-rolled sweeps this file used to run: every
// (victim, action index, keep-work, delivery prefix) combination at bounded
// depth, covering mid-broadcast cuts, crash-after-work-before-checkpoint,
// crash during takeover chores, crash while preactive, and crash while
// answering a poll.

type protoCase struct {
	name     string // subtest name
	protocol string // core.Protocols entry
	n, t     int
	actions  int // action-index depth to sweep
}

func exhaustiveCases() []protoCase {
	return []protoCase{
		{"A", "a", 12, 4, 10}, {"B", "b", 12, 4, 10}, {"C", "c", 8, 4, 8}, {"D", "d", 12, 4, 8},
		{"single-checkpoint", "single-checkpoint", 8, 4, 8}, {"naive", "naive", 8, 4, 8},
	}
}

// target is the protocol table's certification target for the case: the
// shipped body, certified for completion, the single-active invariant where
// the table declares it, and the table's bounds in every execution.
func (pc protoCase) target(t *testing.T) explore.Target {
	tg, err := explore.NewTarget(pc.protocol, pc.n, pc.t, pc.t-1)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// enumerate walks the space and fails the test on any certification
// violation, checking the walk covered the space exactly.
func enumerate(t *testing.T, tg explore.Target, sp explore.Space) *explore.Report {
	t.Helper()
	rep, err := tg.Enumerate(sp, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := sp.Count(); rep.Schedules != want {
		t.Fatalf("certified %d of %d schedules", rep.Schedules, want)
	}
	for _, v := range rep.Violations {
		t.Errorf("schedule %s: %s", v.Vector, v.Reason)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("%d violations over %d schedules", rep.ViolationCount, rep.Schedules)
	}
	return rep
}

func intRange(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

func roundRange(lo, hi int64) []int64 {
	var out []int64
	for r := lo; r <= hi; r++ {
		out = append(out, r)
	}
	return out
}

// TestExhaustiveSingleCrashSweep crashes each process at each of its first
// K actions — every (victim, action index, keep-work) combination with the
// broadcast fully suppressed.
func TestExhaustiveSingleCrashSweep(t *testing.T) {
	for _, pc := range exhaustiveCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			enumerate(t, pc.target(t), explore.Space{
				Victims:    intRange(0, pc.t-1, 1),
				MaxCrashes: 1,
				Actions:    intRange(1, pc.actions, 1),
				KeepWork:   []bool{false, true},
				Prefixes:   []int{0},
			})
		})
	}
}

// TestExhaustiveBroadcastCutSweep crashes process 0 at each of its first K
// actions, delivering every possible prefix of the cut broadcast.
func TestExhaustiveBroadcastCutSweep(t *testing.T) {
	for _, pc := range exhaustiveCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			enumerate(t, pc.target(t), explore.Space{
				Victims:    []int{0},
				MaxCrashes: 1,
				Actions:    intRange(1, pc.actions, 1),
				KeepWork:   []bool{true},
				Prefixes:   intRange(0, pc.t-1, 1),
			})
		})
	}
}

// TestExhaustiveDoubleCrashSweep crosses crashes of processes 0 and 1 over
// action indices — the takeover-during-takeover cases. The space is the
// full keep-work cross where the old hand-rolled sweep fixed keep-work by
// parity.
func TestExhaustiveDoubleCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic sweep")
	}
	for _, pc := range exhaustiveCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			enumerate(t, pc.target(t), explore.Space{
				Victims:    []int{0, 1},
				MaxCrashes: 2,
				Actions:    intRange(1, pc.actions, 2),
				KeepWork:   []bool{false, true},
				Prefixes:   []int{0},
			})
		})
	}
}

// TestExhaustiveScheduledRoundCrashes crashes processes 1 and 2 at every
// pair of early rounds, covering simultaneous and staggered
// sleeping-process crashes.
func TestExhaustiveScheduledRoundCrashes(t *testing.T) {
	for _, pc := range exhaustiveCases() {
		pc := pc
		if pc.name == "C" || pc.name == "naive" {
			continue // exponential deadlines make round-indexed sweeps moot
		}
		t.Run(pc.name, func(t *testing.T) {
			enumerate(t, pc.target(t), explore.Space{
				Victims:    []int{1, 2},
				MaxCrashes: 2,
				Rounds:     roundRange(0, 7),
			})
		})
	}
}

// TestExhaustiveWorkConservationProperty certifies the Theorem 2.8 bounds
// (the protocol table's) on the single-crash space of Protocol B: work never
// exceeds 3n and (via the completion guarantee) never misses a unit.
func TestExhaustiveWorkConservationProperty(t *testing.T) {
	n, tt := 12, 4
	rep := enumerate(t, protoCase{"B", "b", n, tt, 12}.target(t), explore.Space{
		Victims:    intRange(0, tt-1, 1),
		MaxCrashes: 1,
		Actions:    intRange(1, 12, 1),
		KeepWork:   []bool{true},
		Prefixes:   []int{0},
	})
	if rep.WorstWork.Value > int64(3*n) {
		t.Fatalf("worst work %d > 3n (schedule %s)", rep.WorstWork.Value, rep.WorstWork.Vector)
	}
}

// TestCrashAtEveryRoundProtocolB hammers the takeover window: crash the
// active process at every round of a short run, one run per round.
func TestCrashAtEveryRoundProtocolB(t *testing.T) {
	tg := protoCase{"B", "b", 8, 4, 0}.target(t)
	base := tg.Certify(nil)
	if len(base.Violations) != 0 {
		t.Fatalf("failure-free run: %v", base.Violations)
	}
	enumerate(t, tg, explore.Space{
		Victims:    []int{0},
		MaxCrashes: 1,
		Rounds:     roundRange(0, base.Result.Rounds),
	})
}

// --- Crash-recovery property tests ---
//
// The protocol machines are Recoverable: a crash with RestartAt revives
// them from the engine's checkpoint.

// recoveryTarget is a certification target for crash recovery. MaxRound caps
// runaway executions so a sweep that loses its round bound fails loudly
// instead of spinning.
func recoveryTarget(name string, n, t int, maxRound int64) explore.Target {
	p, _ := core.LookupProtocol(strings.ToLower(name))
	return explore.Target{
		Protocol: name, N: n, T: t,
		MaxCrashes:   t - 1,
		SingleActive: p.SingleActive,
		MaxRound:     maxRound,
		NewProcs:     func() (core.Procs, error) { return p.Build(n, t, core.Params{}) },
	}
}

// restartSweepSpace crosses round crashes of processes 1 and 2 over early
// rounds, each either permanent or revived after a delay of 1 or 3 rounds —
// simultaneous, staggered, and crash-after-revival interleavings included.
func restartSweepSpace() explore.Space {
	return explore.Space{
		Victims:       []int{1, 2},
		MaxCrashes:    2,
		Rounds:        roundRange(0, 5),
		RestartDelays: []int64{1, 3},
	}
}

// TestExhaustiveRestartSweep certifies protocols A and D over the full
// crash+restart sweep: completion, the single-active invariant (A), and the
// engine round cap all survive crash recovery. B and C are deliberately
// absent — recovery breaks an invariant of each, and the two tests that
// follow pin exactly how.
func TestExhaustiveRestartSweep(t *testing.T) {
	for _, name := range []string{"A", "D"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rep := enumerate(t, recoveryTarget(name, 12, 4, 4000), restartSweepSpace())
			if want := int64(3 * 12); name == "A" && rep.WorstWork.Value > want {
				t.Fatalf("worst work %d > 3n under recovery (schedule %s)",
					rep.WorstWork.Value, rep.WorstWork.Vector)
			}
		})
	}
}

// TestRestartBreaksSingleActiveProtocolB pins a genuine model finding:
// Protocol B's at-most-one-active guarantee assumes crashed processes stay
// crashed. A revived checkpoint re-enters the takeover ladder, decides its
// predecessors are dead, and goes active next to the living worker. The
// violation is the experiment — and completion still holds once the
// invariant check is lifted, so recovery breaks exclusivity, not progress.
func TestRestartBreaksSingleActiveProtocolB(t *testing.T) {
	vec, err := explore.ParseVector("1@r2:restart@r5")
	if err != nil {
		t.Fatal(err)
	}
	tg := recoveryTarget("B", 12, 4, 4000)
	cert := tg.Certify(vec)
	if len(cert.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly the single-active breach", cert.Violations)
	}
	if want := "2 active processes"; !strings.Contains(cert.Violations[0].Reason, want) {
		t.Fatalf("violation %q, want %q", cert.Violations[0].Reason, want)
	}
	tg.SingleActive = false
	cert = tg.Certify(vec)
	if len(cert.Violations) != 0 {
		t.Fatalf("with invariant lifted: %v", cert.Violations)
	}
	if !cert.Result.Complete() {
		t.Fatal("completion lost under recovery")
	}
}

// TestRestartDegradesRoundsProtocolC pins the other failure mode: Protocol
// C's exponential deadlines mean a process revived with a stale epoch
// re-synchronises only after its doubled deadline fires — the run still
// completes with bounded work, but the round count explodes by orders of
// magnitude. Recovery costs C its time bound, not its work bound.
func TestRestartDegradesRoundsProtocolC(t *testing.T) {
	vec, err := explore.ParseVector("1@r0:restart@r3")
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	cert := recoveryTarget("C", n, 4, 0).Certify(vec)
	if len(cert.Violations) != 0 {
		t.Fatalf("violations: %v", cert.Violations)
	}
	if !cert.Result.Complete() {
		t.Fatal("completion lost under recovery")
	}
	if cert.Result.WorkTotal > int64(3*n) {
		t.Fatalf("work %d > 3n: recovery should not cost C its work bound", cert.Result.WorkTotal)
	}
	if cert.Result.Rounds < 1_000_000 {
		t.Fatalf("rounds = %d; expected the deadline blow-up past 10^6 — if this "+
			"dropped, C's recovery behaviour changed and EXPERIMENTS.md X5 is stale",
			cert.Result.Rounds)
	}
}

// TestRestartKeepWorkNeverDoubleCounts is the restart analogue of work
// conservation: a lone Protocol B worker crashed mid-commit with its work
// kept and later revived must finish all n units with work exactly n — the
// checkpoint remembers completed units, so nothing is redone, and the crash
// losing the in-flight broadcast loses no work either.
func TestRestartKeepWorkNeverDoubleCounts(t *testing.T) {
	n := 8
	for at := 1; at <= n; at++ {
		vec := explore.Vector{{Victim: 0, AtAction: at, KeepWork: true, RestartAt: 40}}
		tg := recoveryTarget("B", n, 1, 4000)
		tg.MaxCrashes = 1
		tg.Bounds = explore.Bounds{Work: int64(n)}
		cert := tg.Certify(vec)
		if len(cert.Violations) != 0 {
			t.Fatalf("at=%d: %v", at, cert.Violations)
		}
		if cert.Collapsed {
			t.Fatalf("at=%d: crash never fired", at)
		}
		if got := cert.Result.WorkTotal; got != int64(n) {
			t.Fatalf("at=%d: work = %d, want exactly %d", at, got, n)
		}
		if got := cert.Result.WorkDistinct; got != n {
			t.Fatalf("at=%d: distinct = %d, want %d", at, got, n)
		}
		if !cert.Result.Complete() {
			t.Fatalf("at=%d: incomplete", at)
		}
	}
}

// TestRestartLostWorkStaysLost documents the deliberate checkpoint
// semantics: the checkpoint is taken at the crash believing the interrupted
// action committed, so a KeepWork=false crash plus restart permanently
// loses that unit — the revived lone worker cannot know to redo it.
func TestRestartLostWorkStaysLost(t *testing.T) {
	n := 8
	vec := explore.Vector{{Victim: 0, AtAction: 2, RestartAt: 40}}
	tg := recoveryTarget("B", n, 1, 4000)
	tg.MaxCrashes = 1
	cert := tg.Certify(vec)
	if cert.Result.Complete() {
		t.Fatal("lost-work restart completed; checkpoint semantics changed")
	}
	if got := cert.Result.WorkDistinct; got != n-1 {
		t.Fatalf("distinct = %d, want %d (exactly the crashed unit missing)", got, n-1)
	}
}

func ExampleCheckCompletion() {
	procs, _ := core.ProtocolBProcs(core.ABConfig{N: 4, T: 2})
	res, _ := core.RunProcs(4, 2, procs, core.RunOptions{})
	fmt.Println(core.CheckCompletion(res) == nil, res.WorkDistinct)
	// Output: true 4
}
