package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// The broadcast record plane must be invisible in the Results: running a
// protocol with its broadcasts expanded per send (sim.FlattenBroadcasts, the
// reference semantics) must produce the same run. TestBroadcastPlaneEquivalence
// (results_test.go) replays the whole results corpus that way.

func flattenedSteppers(steppers func(int) sim.Stepper) func(int) sim.Stepper {
	return func(id int) sim.Stepper { return sim.FlattenBroadcasts(steppers(id)) }
}

// TestBroadcastPlaneCrashMidBroadcast aims a kindCount adversary at a full
// checkpoint so the crash truncates a broadcast to a strict prefix of its
// recipients, and requires both planes to agree on the aftermath.
func TestBroadcastPlaneCrashMidBroadcast(t *testing.T) {
	n, tt := 100, 9
	for _, prefix := range []int{0, 1, 2} {
		prefix := prefix
		t.Run(fmt.Sprintf("prefix=%d", prefix), func(t *testing.T) {
			mkAdv := func() sim.Adversary {
				return &kindCount{PID: 0, Kind: "full-cp", N: 1, Prefix: prefix}
			}
			opt := func() RunOptions {
				return RunOptions{Adversary: mkAdv(), MaxActive: 1, DetailedMetrics: true}
			}
			run := func(flatten bool) (sim.Result, error) {
				steppers, err := ProtocolBSteppers(ABConfig{N: n, T: tt})
				if err != nil {
					t.Fatal(err)
				}
				if flatten {
					steppers = flattenedSteppers(steppers)
				}
				return RunSteppers(n, tt, steppers, opt())
			}
			native, err := run(false)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := run(true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(native, flat) {
				t.Fatalf("planes diverge:\nnative: %+v\nflat:   %+v", native, flat)
			}
			if native.Crashes != 1 {
				t.Fatalf("Crashes = %d, want 1", native.Crashes)
			}
			if err := CheckCompletion(native); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPooledRunDeterminism re-runs the same configurations through the
// pooled core runner and requires identical Results: engine reuse across
// runs must be invisible. So must machine reuse: every protocol machine,
// rewound to a pristine snapshot after a run, replays like a fresh build.
func TestPooledRunDeterminism(t *testing.T) {
	type runCase struct {
		name  string
		run   func() (sim.Result, error)
		first sim.Result
	}
	cases := []runCase{}
	mk := func(name string, run func() (sim.Result, error)) {
		cases = append(cases, runCase{name: name, run: run})
	}
	mk("B-cascade", func() (sim.Result, error) {
		pr, err := ProtocolBProcs(ABConfig{N: 60, T: 9})
		if err != nil {
			return sim.Result{}, err
		}
		return RunProcs(60, 9, pr, RunOptions{
			Adversary: adversary.NewCascade(2, 8), MaxActive: 1, DetailedMetrics: true,
		})
	})
	mk("D-random", func() (sim.Result, error) {
		pr, err := ProtocolDProcs(DConfig{N: 64, T: 8})
		if err != nil {
			return sim.Result{}, err
		}
		return RunProcs(64, 8, pr, RunOptions{
			Adversary: adversary.NewRandom(0.05, 7, 3), DetailedMetrics: true,
		})
	})
	for i := range cases {
		res, err := cases[i].run()
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		cases[i].first = res
	}
	// Interleave repeats so pooled engines are reused across differing
	// shapes and protocols.
	for round := 0; round < 3; round++ {
		for i := range cases {
			res, err := cases[i].run()
			if err != nil {
				t.Fatalf("%s round %d: %v", cases[i].name, round, err)
			}
			if !reflect.DeepEqual(res, cases[i].first) {
				t.Fatalf("%s round %d diverges from first run:\nfirst: %+v\nnow:   %+v",
					cases[i].name, round, cases[i].first, res)
			}
		}
	}
	for _, m := range rewindMachines() {
		t.Run("rewind/"+m.name, func(t *testing.T) { checkRewind(t, m) })
	}
	t.Run("d-restart-mid-work", checkDRestartMidWork)
}

// restoreProbe records where each Restore of a D machine lands.
type restoreProbe struct {
	*dMachine
	landed [][4]int // state, lo, k, hi after the restore
}

func (r *restoreProbe) Restore(snap any) {
	r.dMachine.Restore(snap)
	r.landed = append(r.landed, [4]int{r.state, r.lo, r.k, r.hi})
}

// checkDRestartMidWork crashes a D process in the middle of its first work
// phase and restarts it there, so the restore lands between two dWork
// steps and resumes from the cursor fields alone. Machines that already ran
// and were rewound to their pristine snapshots must replay the run exactly
// like a fresh build.
func checkDRestartMidWork(t *testing.T) {
	m := rewindMachine{"d", 64, 8, func() (func(int) sim.Stepper, error) { return ProtocolDSteppers(DConfig{N: 64, T: 8}) }}
	adv := func() sim.Adversary {
		return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 3, RestartAt: 5})
	}
	fresh, err := m.build()
	if err != nil {
		t.Fatal(err)
	}
	want := runTraced(m, fresh, adv())
	if want.res.Restarts != 1 {
		t.Fatalf("schedule revived %d processes, want 1", want.res.Restarts)
	}
	reuse, err := m.build()
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]sim.Recoverable, m.t)
	pristine := make([]any, m.t)
	for id := range bodies {
		bodies[id] = reuse(id).(sim.Recoverable)
		pristine[id] = bodies[id].Snapshot()
	}
	runTraced(m, func(id int) sim.Stepper { return bodies[id] }, nil)
	for id, b := range bodies {
		b.Restore(pristine[id])
	}
	probe := &restoreProbe{dMachine: bodies[0].(*dMachine)}
	got := runTraced(m, func(id int) sim.Stepper {
		if id == 0 {
			return probe
		}
		return bodies[id]
	}, adv())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rewound machines diverge from a fresh build:\ngot:  %+v\nwant: %+v", got, want)
	}
	if len(probe.landed) != 1 {
		t.Fatalf("process 0 was restored %d times, want 1", len(probe.landed))
	}
	if at := probe.landed[0]; at[0] != dWork || at[2] <= at[1] || at[2] >= at[3] {
		t.Fatalf("restore landed at state %d with lo=%d k=%d hi=%d, want inside a work phase", at[0], at[1], at[2], at[3])
	}
}

// rewindMachine builds one protocol's per-process machines.
type rewindMachine struct {
	name  string
	n, t  int
	build func() (func(id int) sim.Stepper, error)
}

func rewindMachines() []rewindMachine {
	return []rewindMachine{
		{"a", 24, 6, func() (func(int) sim.Stepper, error) { return protocolASteppers(ABConfig{N: 24, T: 6}) }},
		{"b", 24, 6, func() (func(int) sim.Stepper, error) { return ProtocolBSteppers(ABConfig{N: 24, T: 6}) }},
		{"c", 12, 4, func() (func(int) sim.Stepper, error) { return protocolCSteppers(CConfig{N: 12, T: 4}) }},
		{"d", 24, 6, func() (func(int) sim.Stepper, error) { return ProtocolDSteppers(DConfig{N: 24, T: 6}) }},
		{"gossip", 24, 6, func() (func(int) sim.Stepper, error) { return GossipSteppers(GossipConfig{N: 24, T: 6}) }},
		{"trivial", 8, 4, func() (func(int) sim.Stepper, error) { return TrivialSteppers(8), nil }},
	}
}

// tracedRun is one run's Result, error text and event trace.
type tracedRun struct {
	res   sim.Result
	err   string
	trace []sim.Event
}

func runTraced(m rewindMachine, steppers func(int) sim.Stepper, adv sim.Adversary) tracedRun {
	var tr tracedRun
	res, err := RunSteppers(m.n, m.t, steppers, RunOptions{
		Adversary: adv, DetailedMetrics: true,
		Tracer: func(e sim.Event) { tr.trace = append(tr.trace, e) },
	})
	tr.res, tr.err = res, fmt.Sprint(err)
	return tr
}

// panicAfter steps its body and then panics on the body's n-th step, so
// the body's state has moved past the pristine one when the run dies.
type panicAfter struct {
	sim.Recoverable
	n int
}

func (p *panicAfter) Step(proc *sim.Proc) sim.Yield {
	y := p.Recoverable.Step(proc)
	if p.n--; p.n == 0 {
		panic("panicAfter: planned panic")
	}
	return y
}

// checkRewind runs one set of machines through failure-free, crash-restart
// and panicking runs, rewinding them to their pristine snapshots in between
// (once, or twice in a row), and requires every run to match a fresh
// build's Result and trace exactly.
func checkRewind(t *testing.T, m rewindMachine) {
	fresh, err := m.build()
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]sim.Recoverable, m.t)
	pristine := make([]any, m.t)
	for id := range bodies {
		bodies[id] = fresh(id).(sim.Recoverable)
		pristine[id] = bodies[id].Snapshot()
	}
	reused := func(id int) sim.Stepper { return bodies[id] }
	rewind := func() {
		for id, b := range bodies {
			b.Restore(pristine[id])
		}
	}
	none := func() sim.Adversary { return nil }
	// Process 0 crashes at its 3rd action and restarts from its crash
	// checkpoint at round 9; process 2 crashes at round 1 and is revived by
	// the round schedule at round 4.
	crashRestart := func() sim.Adversary {
		return adversary.NewSchedule(
			adversary.Crash{PID: 0, AtAction: 3, RestartAt: 9},
			adversary.Crash{PID: 2, Round: 1, RestartAt: 4},
		)
	}
	check := func(when string, adv func() sim.Adversary) tracedRun {
		t.Helper()
		got := runTraced(m, reused, adv())
		want := runTraced(m, fresh, adv())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rewound machines diverge from a fresh build:\ngot:  %+v\nwant: %+v", when, got, want)
		}
		return want
	}
	if first := check("first run", crashRestart); first.res.Restarts != 2 {
		t.Fatalf("crash-restart schedule revived %d processes, want 2", first.res.Restarts)
	}
	rewind()
	check("after a crash-restart run", none)
	rewind()
	check("after a failure-free run", crashRestart)
	rewind()
	crashed := runTraced(m, func(id int) sim.Stepper {
		if id == 0 {
			return &panicAfter{Recoverable: bodies[0], n: 2}
		}
		return bodies[id]
	}, crashRestart())
	if !strings.Contains(crashed.err, "panicked") {
		t.Fatalf("panicking run ended with %q, want a panic error", crashed.err)
	}
	rewind()
	check("after a panicking step", none)
	rewind()
	rewind()
	check("restored twice from the same snapshot", crashRestart)
}
