package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// span is one timed interval of a traced run. Spans nest strictly (the
// benchmark has one client goroutine): pass → op → the call into a layer
// (core.build, sim.run, live.run, wire.ready, wire.run, wire.join_exit,
// explore.enumerate). What happens inside such a call is seen only through
// the decorators, millions of times per run, so it is recorded as aggregate
// child spans — core.step, core.build, adversary.*, transport.* — that carry
// the number of calls folded in and their summed duration instead of one span
// per call.
type span struct {
	Name   string `json:"name"`
	Case   string `json:"case,omitempty"` // op spans: the case run
	Start  int64  `json:"start_ns"`       // since the traced run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`            // index into the span list; -1 for a pass
	Op     int    `json:"op"`                // shared by all spans of one op; -1 for a pass
	Calls  int64  `json:"calls,omitempty"`   // aggregate spans: calls folded in
	BusyNs int64  `json:"busy_ns,omitempty"` // aggregate spans: Σ call durations
}

// counters are a run's own counts, the multipliers of the cost model.
type counters struct {
	runs, events, messages, rounds, deferred int64
	p2p, bcastTo, sleeps                     int64
	executed                                 int64 // rounds the plane ran rather than fast-forwarded over
	engineRuns                               int64 // explore: replays spent
}

func (c *counters) addResult(res sim.Result) {
	c.runs++
	c.events += res.Events
	c.messages += res.Messages
	c.rounds += res.Rounds
	c.deferred += res.Deferred
}

func (c *counters) addSteps(s stepAcc) {
	c.p2p += s.p2p
	c.bcastTo += s.bcastTo
	c.sleeps += s.sleeps
}

// protoAcc is the core layer's figures for one protocol.
type protoAcc struct {
	steps   int64
	stepNs  []float64 // per op: mean ns per Step
	buildUs []float64 // per op: building the process bodies
}

// tracer records one traced run of one workload: the span list, and the
// layer totals the per-layer metrics are computed from. A nil *tracer means
// tracing is off; every method is a no-op on it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int   // id of the op in progress, -1 between ops
	nOps  int

	passes   int
	counts   counters
	byProto  map[string]*protoAcc
	build    callAcc // core.build: plans + per-process constructors
	plans    callAcc // the plans alone: the part of build outside the run spans
	step     callAcc // core.step
	adv      advAcc
	runNs    int64 // Σ sim.run | live.run | wire.run | explore.enumerate spans
	liveRuns []liveRunAcc

	// live-mix transport samples, in ns.
	grantWait, chanHop, turnaround []int64

	// wire-cluster.
	closeMs, usPerRound []float64 // per op
	rtt                 []int64   // ns
	frames              int64
	inFlightNs          int64   // Σ per round: first grant → last arrival
	turns               callAcc // last arrival of a round → first grant of the next
	joinErrs, joinsRun  int

	// The decorators of the op in progress, from the layer call's begin to
	// its end.
	set  *stepSet
	advA *advAcc
	tw   *timedWire
}

// liveRunAcc is what the live cost model needs of one live.run.
type liveRunAcc struct {
	t      int
	events int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, byProto: map[string]*protoAcc{}}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Start: tr.now(), Parent: parent, Op: tr.op})
	id := len(tr.spans) - 1
	tr.open = append(tr.open, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns its
// duration.
func (tr *tracer) end(id int) int64 {
	if tr == nil {
		return 0
	}
	if n := len(tr.open); n == 0 || tr.open[n-1] != id {
		panic("benchmark: spans must nest")
	}
	tr.open = tr.open[:len(tr.open)-1]
	s := &tr.spans[id]
	s.End = tr.now()
	return s.End - s.Start
}

func (tr *tracer) beginPass() int {
	if tr == nil {
		return -1
	}
	tr.passes++
	return tr.begin("pass")
}

func (tr *tracer) beginOp(name string) int {
	if tr == nil {
		return -1
	}
	tr.op = tr.nOps
	tr.nOps++
	id := tr.begin("op")
	tr.spans[id].Case = name
	return id
}

func (tr *tracer) endOp(id int) {
	if tr == nil {
		return
	}
	tr.end(id)
	tr.op = -1
}

// fold records the calls a decorator saw inside span parent as one aggregate
// child span.
func (tr *tracer) fold(name string, parent int, c callAcc) {
	if c.calls == 0 {
		return
	}
	p := tr.spans[parent]
	tr.spans = append(tr.spans, span{
		Name: name, Start: p.Start, End: p.End, Parent: parent, Op: p.Op,
		Calls: c.calls, BusyNs: c.ns,
	})
}

func (tr *tracer) proto(name string) *protoAcc {
	if tr.byProto[name] == nil {
		tr.byProto[name] = &protoAcc{}
	}
	return tr.byProto[name]
}

// buildSteppers is core.build: the protocol's plan, with the per-process
// constructors the plane calls later folded in by endRun.
func (tr *tracer) buildSteppers(c *runCase, perProc int) (func(int) sim.Stepper, int64, error) {
	sp := tr.begin("core.build")
	st, err := c.steppers()
	ns := tr.end(sp)
	if err != nil {
		return nil, ns, err
	}
	tr.set = newStepSet(st, perProc)
	return tr.set.make, ns, nil
}

func (tr *tracer) adversary(inner sim.Adversary) sim.Adversary {
	tr.advA = &advAcc{}
	return timeAdversary(inner, tr.advA)
}

// endRun closes a run span and books what the decorators saw inside it.
func (tr *tracer) endRun(sp int, c *runCase, planNs int64, res sim.Result) {
	tr.runNs += tr.end(sp)
	tr.counts.addResult(res)
	if tr.set != nil {
		steps := tr.set.total()
		tr.counts.addSteps(steps)
		tr.fold("core.step", sp, steps.step)
		tr.fold("core.build", sp, tr.set.build)
		tr.step.merge(steps.step)
		tr.build.merge(tr.set.build)
		tr.build.merge(callAcc{calls: 1, ns: planNs})
		tr.plans.merge(callAcc{calls: 1, ns: planNs})
		pa := tr.proto(c.proto)
		pa.steps += steps.step.calls
		pa.stepNs = append(pa.stepNs, ratio(float64(steps.step.ns), float64(steps.step.calls)))
		pa.buildUs = append(pa.buildUs, float64(planNs+tr.set.build.ns)/1e3)
		tr.set = nil
	}
	if a := tr.advA; a != nil {
		tr.fold("adversary.on_action", sp, a.onAction)
		tr.fold("adversary.on_deliver", sp, a.onDeliver)
		tr.fold("adversary.schedule", sp, a.schedule)
		tr.adv.onAction.merge(a.onAction)
		tr.adv.onDeliver.merge(a.onDeliver)
		tr.adv.schedule.merge(a.schedule)
		tr.counts.executed += a.rounds
		tr.advA = nil
	}
}

// tracedEngineRun is an engine-mix op with the decorators installed.
func tracedEngineRun(c *runCase, tr *tracer) (sim.Result, error) {
	st, planNs, err := tr.buildSteppers(c, 0)
	if err != nil {
		return sim.Result{}, err
	}
	adv := tr.adversary(c.faults.adversary(c.seed))
	sp := tr.begin("sim.run")
	res, err := core.RunSteppers(c.n, c.t, st, c.runOptions(adv))
	tr.endRun(sp, c, planNs, res)
	return res, err
}

// tracedLiveRun is a live-mix op with the decorators installed.
func tracedLiveRun(c *runCase, tr *tracer) (sim.Result, error) {
	st, planNs, err := tr.buildSteppers(c, c.t)
	if err != nil {
		return sim.Result{}, err
	}
	adv := tr.adversary(c.faults.adversary(c.seed))
	tc := newTimedChan()
	sp := tr.begin("live.run")
	res, err := live.Run(liveConfig(c, adv, tc), st)
	tr.endRun(sp, c, planNs, res)
	tr.liveRuns = append(tr.liveRuns, liveRunAcc{t: c.t, events: res.Events})
	var blocked callAcc
	for i := range tc.pids {
		p := &tc.pids[i]
		tr.grantWait = append(tr.grantWait, p.wait.kept...)
		tr.chanHop = append(tr.chanHop, p.hop.kept...)
		blocked.merge(p.wait.callAcc)
	}
	tr.turnaround = append(tr.turnaround, tc.turnaround.kept...)
	tr.fold("transport.grant_wait", sp, blocked)
	tr.fold("transport.turnaround", sp, tc.turnaround.callAcc)
	return res, err
}

func (tr *tracer) wireTransport(wt *live.WireTransport) live.Transport {
	tr.tw = newTimedWire(wt)
	return tr.tw
}

// joinErrors books the outcome of one op's joins.
func (tr *tracer) joinErrors(failed, ran int) {
	if tr == nil {
		return
	}
	tr.joinErrs += failed
	tr.joinsRun += ran
}

// endWireRun closes a wire.run span; the adversary and the transport
// decorator saw its inside.
func (tr *tracer) endWireRun(sp int, res sim.Result) {
	if tr == nil {
		return
	}
	tw := tr.tw
	tr.tw = nil
	runNs := tr.spans[sp].Start
	tr.endRun(sp, nil, 0, res)
	runNs = tr.spans[sp].End - runNs
	tw.mu.Lock()
	tr.rtt = append(tr.rtt, tw.rtt...)
	tw.mu.Unlock()
	tr.frames += tw.frames.Load()
	tr.inFlightNs += tw.inFlight
	tr.turns.merge(tw.turns)
	tr.closeMs = append(tr.closeMs, float64(tw.closeNs)/1e6)
	tr.usPerRound = append(tr.usPerRound, ratio(float64(runNs)/1e3, float64(tw.rounds)))
	tr.fold("transport.in_flight", sp, callAcc{calls: tw.rounds, ns: tw.inFlight})
	tr.fold("transport.turnaround", sp, tw.turns)
	tr.fold("transport.close", sp, callAcc{calls: 1, ns: tw.closeNs})
}

// target decorates a certification target's process bodies. Enumerate builds
// its own adversary from each schedule, so only core is visible inside it.
func (tr *tracer) target(tg explore.Target) explore.Target {
	inner := tg.NewProcs
	tr.set = newStepSet(nil, 0)
	set := tr.set
	tg.NewProcs = func() (core.Procs, error) {
		t0 := time.Now()
		pr, err := inner()
		set.build.add(t0)
		if err != nil || pr.Steppers == nil {
			return pr, err
		}
		st := pr.Steppers
		return core.Procs{Steppers: func(id int) sim.Stepper {
			t0 := time.Now()
			s := st(id)
			set.build.add(t0)
			return timeStepper(s, &set.accs[0])
		}}, nil
	}
	return tg
}

// endEnumerate closes an explore.enumerate span and books what the stepper
// decorator saw inside it; the walk's report says how many replays it spent.
func (tr *tracer) endEnumerate(sp int, rep *explore.Report) {
	if tr == nil {
		return
	}
	tr.runNs += tr.end(sp)
	set := tr.set
	tr.set = nil
	steps := set.total()
	tr.counts.addSteps(steps)
	tr.counts.events += steps.step.calls
	tr.fold("core.step", sp, steps.step)
	tr.fold("core.build", sp, set.build)
	tr.step.merge(steps.step)
	tr.build.merge(set.build)
	if rep != nil {
		tr.counts.engineRuns += rep.EngineRuns
	}
}

// traceFile is what `-trace 1` leaves in benchmark/out for one workload.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	ClockNs  float64 `json:"clock_ns"` // cost of one timed call's two clock reads
	Passes   int     `json:"passes"`
	Spans    []span  `json:"spans"`
}

const traceDir = "benchmark/out"

// write saves the spans under benchmark/out, relative to the directory the
// benchmark was started in (the repository root).
func (tr *tracer) write(workload string, seed int64, clockNs float64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, ClockNs: clockNs, Passes: tr.passes, Spans: tr.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
