package main

import (
	"fmt"

	doall "repro"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sim"
)

// faultKind selects one of the fault patterns the run workloads inject.
type faultKind int

const (
	noFaults faultKind = iota
	cascadeFaults
	randomFaults
	// stormFaults is the EngineFaultStorm alphabet: a kept-work action crash,
	// a round crash that restarts, a plain round crash, 5 % seeded message
	// loss and one slowed worker, all in one run.
	stormFaults
)

// faultSpec describes a fault pattern once so it can be built both ways a
// run needs it: as doall.Failures for the public API and as a sim.Adversary
// for the planes and the decorators. Adversaries are stateful and single-use,
// hence builders.
type faultSpec struct {
	kind  faultKind
	units int     // cascade: units of work between crashes
	max   int     // cascade, random: crash budget
	p     float64 // random: crash probability per committed action
}

func (f faultSpec) failures(seed int64) doall.Failures {
	switch f.kind {
	case cascadeFaults:
		return doall.CascadeFailures(f.units, f.max)
	case randomFaults:
		return doall.RandomFailures(f.p, f.max, seed)
	case stormFaults:
		return doall.CombinedFailures(
			doall.ScheduledFailures(
				doall.Crash{Process: 3, AtAction: 9, KeepWork: true},
				doall.Crash{Process: 0, Round: 40, RestartAt: 80},
				doall.Crash{Process: 5, Round: 120},
			),
			doall.LossyFailures(0.05, 16, seed),
			doall.SlowdownFailures(1, 30, 3),
		)
	}
	return nil
}

func (f faultSpec) adversary(seed int64) sim.Adversary {
	switch f.kind {
	case cascadeFaults:
		return adversary.NewCascade(f.units, f.max)
	case randomFaults:
		return adversary.NewRandom(f.p, f.max, seed)
	case stormFaults:
		return adversary.NewChain(
			adversary.NewSchedule(
				adversary.Crash{PID: 3, AtAction: 9, KeepWork: true},
				adversary.Crash{PID: 0, Round: 40, RestartAt: 80},
				adversary.Crash{PID: 5, Round: 120},
			),
			adversary.NewLoss(0.05, 16, seed),
			&adversary.Slowdown{PID: 1, Round: 30, Factor: 3},
		)
	}
	return adversary.None()
}

// runCase is one protocol run: the op of the engine-mix, live-mix and
// wire-cluster workloads.
type runCase struct {
	name   string
	proto  string // explore.NewTarget name: a, b, c, d, gossip
	n, t   int
	capped bool // congested-clique cap of half the gossip fanout
	faults faultSpec

	// Filled by prepare from the benchmark seed.
	seed int64      // this case's adversary seed
	ref  sim.Result // the engine's result for this case and seed
	fp   uint64     // ref.Fingerprint()
}

func (c *runCase) bandwidth() int {
	if !c.capped {
		return 0
	}
	return (core.GossipFanout(c.t) + 1) / 2
}

// steppers builds the process bodies exactly as `doall join` does.
func (c *runCase) steppers() (func(int) sim.Stepper, error) {
	tg, err := explore.NewTarget(c.proto, c.n, c.t, c.t-1)
	if err != nil {
		return nil, err
	}
	return core.SteppersFor(tg.NewProcs())
}

var protocols = map[string]doall.Protocol{
	"a": doall.ProtocolA, "b": doall.ProtocolB, "c": doall.ProtocolC,
	"d": doall.ProtocolD, "gossip": doall.Gossip,
}

// config is the case as a user of the public API states it.
func (c *runCase) config() doall.Config {
	return doall.Config{
		Units: c.n, Workers: c.t, Protocol: protocols[c.proto],
		Bandwidth: c.bandwidth(), Failures: c.faults.failures(c.seed),
	}
}

func (c *runCase) runOptions(adv sim.Adversary) core.RunOptions {
	return core.RunOptions{Adversary: adv, Bandwidth: c.bandwidth(), DetailedMetrics: true}
}

// prepare derives the case's adversary seed from the benchmark seed and
// computes the engine reference every plane is held to.
func (c *runCase) prepare(benchSeed int64, index int) error {
	c.seed = benchSeed*1_000_003 + int64(index)
	st, err := c.steppers()
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	c.ref, err = core.RunSteppers(c.n, c.t, st, c.runOptions(c.faults.adversary(c.seed)))
	if err != nil {
		return fmt.Errorf("%s: engine reference: %w", c.name, err)
	}
	c.fp = c.ref.Fingerprint()
	return nil
}

// check is the verdict on one finished run of the case: "" when the result
// is the engine reference's, else the reason the op failed.
func (c *runCase) check(res sim.Result, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case res.Survivors > 0 && !res.Complete():
		return "survivors but work incomplete"
	case res.Fingerprint() != c.fp:
		return "result differs from the engine reference"
	}
	return ""
}

// sameRun reports whether the public API's Result describes the same
// execution as the engine reference (doall.Result is a field-for-field
// projection of sim.Result).
func sameRun(d doall.Result, s sim.Result) bool {
	if d.Work != s.WorkTotal || d.WorkDistinct != s.WorkDistinct ||
		d.Messages != s.Messages || d.Rounds != s.Rounds ||
		d.Complete != s.Complete() || d.Survivors != s.Survivors ||
		d.Crashes != s.Crashes || d.Restarts != s.Restarts ||
		d.Dropped != s.Dropped || d.Omitted != s.Omitted ||
		d.Deferred != s.Deferred || d.Events != s.Events ||
		len(d.Workers) != len(s.PerProc) {
		return false
	}
	for i, w := range d.Workers {
		p := s.PerProc[i]
		if w.Work != p.Work || w.Sent != p.Sent || w.RetireRound != p.RetireRound ||
			w.Status != p.Status.String() {
			return false
		}
	}
	return true
}

func cascade(units, max int) faultSpec {
	return faultSpec{kind: cascadeFaults, units: units, max: max}
}

func random(p float64, max int) faultSpec {
	return faultSpec{kind: randomFaults, p: p, max: max}
}

// engineCases is one pass of engine-mix. Each case is there for the engine
// path named beside it.
func engineCases() []*runCase {
	return []*runCase{
		{name: "b-256x16-cascade", proto: "b", n: 256, t: 16, faults: cascade(16, 15)},
		// run queue and sleeper heap at large t
		{name: "b-4096x256-cascade", proto: "b", n: 4096, t: 256, faults: cascade(4, 255)},
		{name: "a-4096x64-random", proto: "a", n: 4096, t: 64, faults: random(0.002, 63)},
		// broadcast fan-out
		{name: "d-4096x64-none", proto: "d", n: 4096, t: 64},
		// views under faults
		{name: "d-1024x64-random", proto: "d", n: 1024, t: 64, faults: random(0.01, 63)},
		{name: "gossip-2048x64-cascade", proto: "gossip", n: 2048, t: 64, faults: cascade(16, 63)},
		// deferred-send queue and pump
		{name: "gossip-2048x64-capped", proto: "gossip", n: 2048, t: 64, capped: true, faults: cascade(16, 63)},
		// fast-forward over exponential deadlines
		{name: "c-24x8-none", proto: "c", n: 24, t: 8},
		{name: "b-256x16-storm", proto: "b", n: 256, t: 16, faults: faultSpec{kind: stormFaults}},
	}
}

// liveCases is one pass of live-mix.
func liveCases() []*runCase {
	var out []*runCase
	for _, p := range []string{"b", "d", "gossip"} {
		out = append(out, &runCase{name: p + "-256x16-cascade", proto: p, n: 256, t: 16, faults: cascade(16, 15)})
	}
	for _, p := range []string{"d", "gossip"} {
		out = append(out, &runCase{name: p + "-1024x64-cascade", proto: p, n: 1024, t: 64, faults: cascade(16, 63)})
	}
	return append(out, &runCase{name: "b-256x16-storm", proto: "b", n: 256, t: 16, faults: faultSpec{kind: stormFaults}})
}

// wireCases is one pass of wire-cluster.
func wireCases() []*runCase {
	return []*runCase{
		{name: "b-32x8-cascade", proto: "b", n: 32, t: 8, faults: cascade(4, 7)},
		{name: "d-32x8-cascade", proto: "d", n: 32, t: 8, faults: cascade(4, 7)},
		{name: "gossip-32x8-cascade", proto: "gossip", n: 32, t: 8, faults: cascade(4, 7)},
	}
}

// exploreCase is one exhaustive certification walk: the op of
// explore-certify.
type exploreCase struct {
	name   string
	target explore.Target
	space  explore.Space
	full   bool
	count  int64 // space.Count(): what Report.Schedules must equal
}

func newExploreCase(name, proto string, n, t, f, depth, prefix int, full bool) (*exploreCase, error) {
	tg, err := explore.NewTarget(proto, n, t, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sp := explore.NewSpace(t, f, depth, prefix)
	return &exploreCase{name: name, target: tg, space: sp, full: full, count: sp.Count()}, nil
}

// exploreCases is one pass of explore-certify: five protocol targets over the
// crash space of depth 6 (3 997 schedules apiece; gossip-cap over the full
// fault alphabet instead), and the symmetric trivial baseline walked raw and
// through its canonical representatives.
func exploreCases() ([]*exploreCase, error) {
	var out []*exploreCase
	add := func(name, proto string, n, t, f, depth, prefix int, full bool) (*exploreCase, error) {
		c, err := newExploreCase(name, proto, n, t, f, depth, prefix, full)
		out = append(out, c)
		return c, err
	}
	for _, c := range []struct {
		proto string
		n, t  int
	}{{"a", 8, 3}, {"b", 8, 3}, {"c", 6, 3}, {"d", 6, 3}} {
		if _, err := add(c.proto, c.proto, c.n, c.t, 2, 6, 2, false); err != nil {
			return nil, err
		}
	}
	g, err := add("gossip-cap", "gossip-cap", 6, 3, 2, 4, 2, false)
	if err != nil {
		return nil, err
	}
	g.space.Omissions = true
	g.space.Rounds = []int64{0, 1, 2}
	g.space.RestartDelays = []int64{2}
	g.space.SlowFactors = []int{2}
	g.space.Drops = []int{1}
	g.count = g.space.Count()
	if _, err := add("trivial-full", "trivial", 4, 6, 3, 4, 0, true); err != nil {
		return nil, err
	}
	if _, err := add("trivial-canon", "trivial", 4, 8, 3, 10, 0, false); err != nil {
		return nil, err
	}
	return out, nil
}
