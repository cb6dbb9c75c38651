package main

import (
	"fmt"

	doall "repro"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// opResult is the outcome of one op: what it contributes to throughput and
// whether its output was the expected one.
type opResult struct {
	units    int64  // simulated events, or walked schedules on explore-certify
	failed   string // "" or why the op failed
	joinErrs int    // wire-cluster: joins that exited with an error
}

// A pass is one workload after set-up: a fixed list of ops issued one after
// the other by a single client (closed loop). op(i, nil) is the op as a user
// pays it; op(i, tr) is the same op with the timing decorators installed and
// its spans recorded in tr.
type pass interface {
	ops() int
	opName(i int) string
	op(i int, tr *tracer) opResult
}

// workload names one benchmark workload and builds its pass from the seed.
type workload struct {
	name  string
	why   string
	unit  string // what throughput_per_s counts
	setup func(seed int64) (pass, error)
}

var workloads = []workload{
	{
		name: "engine-mix", unit: "events",
		why:   "long doall.Run runs over all protocols and fault kinds: sim, core and adversary do all the work, live and explore none",
		setup: func(seed int64) (pass, error) { return newCasePass(engineCases(), seed, engineOp) },
	},
	{
		name: "live-mix", unit: "events",
		why:   "the same Steppers on live.Run over ChanTransport: adds the token barrier, goroutine hand-off and channel hop to the engine's work",
		setup: func(seed int64) (pass, error) { return newCasePass(liveCases(), seed, liveOp) },
	},
	{
		name: "wire-cluster", unit: "events",
		why:   "a fresh serve + 2 joins over loopback TCP per run: gob frame codec, sockets and the seq/ack peer dominate; drives the plane in remote mode",
		setup: func(seed int64) (pass, error) { return newCasePass(wireCases(), seed, wireOp) },
	},
	{
		name: "explore-certify", unit: "walked",
		why: "exhaustive Enumerate walks: tens of thousands of tiny engine runs, so per-run set-up and explore's unrank/prune/certify dominate",
		setup: func(int64) (pass, error) {
			cases, err := exploreCases()
			return explorePass{cases}, err
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// casePass is the pass of the three run workloads: the same kind of case
// list, run on a different plane.
type casePass struct {
	cases []*runCase
	run   func(c *runCase, tr *tracer) opResult
}

// newCasePass derives each case's seed and engine reference.
func newCasePass(cases []*runCase, seed int64, run func(*runCase, *tracer) opResult) (pass, error) {
	for i, c := range cases {
		if err := c.prepare(seed, i); err != nil {
			return nil, err
		}
	}
	return casePass{cases, run}, nil
}

func (p casePass) ops() int                      { return len(p.cases) }
func (p casePass) opName(i int) string           { return p.cases[i].name }
func (p casePass) op(i int, tr *tracer) opResult { return p.run(p.cases[i], tr) }

// engineOp runs the case through doall.Run, the public entry point. The
// traced op goes through core.RunSteppers instead, which is what doall.Run
// calls, so that the decorators can be installed.
func engineOp(c *runCase, tr *tracer) opResult {
	if tr != nil {
		res, err := tracedEngineRun(c, tr)
		return opResult{units: res.Events, failed: c.check(res, err)}
	}
	res, err := doall.Run(c.config())
	out := opResult{units: res.Events}
	switch {
	case err != nil:
		out.failed = err.Error()
	case res.Survivors > 0 && !res.Complete:
		out.failed = "survivors but work incomplete"
	case !sameRun(res, c.ref):
		out.failed = "result differs from the engine reference"
	}
	return out
}

// liveOp runs the case on the live plane's default channel transport.
func liveOp(c *runCase, tr *tracer) opResult {
	var res sim.Result
	var err error
	if tr != nil {
		res, err = tracedLiveRun(c, tr)
	} else if st, buildErr := c.steppers(); buildErr != nil {
		err = buildErr
	} else {
		res, err = live.Run(liveConfig(c, c.faults.adversary(c.seed), nil), st)
	}
	return opResult{units: res.Events, failed: c.check(res, err)}
}

func liveConfig(c *runCase, adv sim.Adversary, tr live.Transport) live.Config {
	return live.Config{
		NumProcs: c.t, NumUnits: c.n, Adversary: adv, Bandwidth: c.bandwidth(),
		DetailedMetrics: true, Transport: tr,
	}
}

// wireOp builds a fresh in-process cluster over real sockets, as a
// `doall serve` + 2 × `doall join` user pays it.
func wireOp(c *runCase, tr *tracer) opResult {
	res, joinErrs, err := wireRun(c, tr)
	return opResult{units: res.Events, failed: c.check(res, err), joinErrs: joinErrs}
}

// The cluster's timers (retransmit interval, reconnect graces) are left at
// the package defaults, as `doall serve` and `doall join` leave them. At the
// 5 ms retransmit interval the wire tests use, one op in thirty sits out the
// whole 2 s drain cap in WireTransport.Close, which makes every wire-cluster
// metric bimodal.
const wireJoins = 2

// joinSteppers resolves a welcome spec to process bodies the way cmd/doall's
// join subcommand does.
func joinSteppers(spec live.WireSpec) (func(int) sim.Stepper, error) {
	tg, err := explore.NewTarget(spec.Protocol, spec.Units, spec.Workers, max(spec.Workers-1, 0))
	if err != nil {
		return nil, err
	}
	return core.SteppersFor(tg.NewProcs())
}

// wireRun is one wire-cluster op: a fresh serve side, two joins, the run,
// and the wait for both joins to exit. The op's outcome is the serve side's:
// the Result live.Run returned, or its error. A join that exits with an
// error after the run (ROADMAP item 1's teardown race: it reads EOF before
// its workers have consumed their kill grants, about once in 4 000 ops here)
// is counted beside it, not as a failed op. tr may be nil.
func wireRun(c *runCase, tr *tracer) (res sim.Result, joinErrs int, err error) {
	sp := tr.begin("wire.ready")
	wt, err := live.NewWireTransport(live.WireOptions{
		Addr: "127.0.0.1:0", Joins: wireJoins,
		Spec: live.WireSpec{Protocol: c.proto, Units: c.n, Workers: c.t},
	})
	if err != nil {
		tr.end(sp)
		return sim.Result{}, 0, err
	}
	exits := make(chan error, wireJoins)
	for j := 0; j < wireJoins; j++ {
		go func() { exits <- live.Join(live.JoinConfig{Addr: wt.Addr(), Steppers: joinSteppers}) }()
	}
	waitJoins := func() {
		for j := 0; j < wireJoins; j++ {
			if <-exits != nil {
				joinErrs++
			}
		}
		tr.joinErrors(joinErrs, wireJoins)
	}
	err = wt.WaitReady()
	tr.end(sp)
	if err != nil {
		wt.Close()
		waitJoins()
		return sim.Result{}, joinErrs, err
	}
	var transport live.Transport = wt
	adv := c.faults.adversary(c.seed)
	if tr != nil {
		transport, adv = tr.wireTransport(wt), tr.adversary(adv)
	}
	sp = tr.begin("wire.run")
	res, err = live.Run(liveConfig(c, adv, transport), nil)
	tr.endWireRun(sp, res)
	sp = tr.begin("wire.join_exit")
	waitJoins()
	tr.end(sp)
	return res, joinErrs, err
}

// explorePass certifies each case's whole schedule space on one worker.
type explorePass struct{ cases []*exploreCase }

func (p explorePass) ops() int            { return len(p.cases) }
func (p explorePass) opName(i int) string { return p.cases[i].name }

func (p explorePass) op(i int, tr *tracer) opResult {
	c := p.cases[i]
	tg := c.target
	if tr != nil {
		tg = tr.target(tg)
	}
	sp := tr.begin("explore.enumerate")
	rep, err := tg.Enumerate(c.space, explore.Options{Jobs: 1, Full: c.full})
	tr.endEnumerate(sp, rep)
	if err != nil {
		return opResult{failed: err.Error()}
	}
	out := opResult{units: rep.Walked}
	switch {
	case rep.ViolationCount > 0:
		out.failed = fmt.Sprintf("%d violations, first: %v", rep.ViolationCount, rep.Violations[0])
	case rep.Schedules != c.count:
		out.failed = fmt.Sprintf("certified %d schedules, space has %d", rep.Schedules, c.count)
	}
	return out
}
