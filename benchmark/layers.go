package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/explore"
)

// A traced run takes every per-layer metric. The probes price the layers on
// their own; then each of the four workloads is run for a while untraced and
// for a while with the decorators installed, the selected workload for a
// quarter of the run length each way and the others for otherWorkloadSeconds,
// so that the layer figures that come from a workload (core.step_ns from
// engine-mix, wire.rtt from wire-cluster, ...) are all present whichever
// workload was asked for. The selected workload's spans are written out.
const (
	otherWorkloadSeconds = 1.0
	minTracedPasses      = 3
)

// unattributedWarn is the share of a pass no layer figure accounts for above
// which a layer is deemed unmeasured (ROADMAP item 3d).
const unattributedWarn = 0.20

// clockCost is the tracer's own cost per timed call: pair is what the two
// clock reads add to the enclosing span, inside the part of it that lands in
// the call's own measured duration.
type clockCost struct{ pair, inside float64 }

// selfNs is the time actually spent inside the calls of c.
func (k clockCost) selfNs(c callAcc) float64 {
	return max(0, float64(c.ns)-float64(c.calls)*k.inside)
}

// outsideNs is what timing that many calls added outside their own measured
// durations.
func (k clockCost) outsideNs(calls int64) float64 {
	return float64(calls) * (k.pair - k.inside)
}

func probeClockCost() clockCost {
	const n = 1 << 16
	var inside float64
	pair := timeMedian(func() {
		var a callAcc
		for i := 0; i < n; i++ {
			a.add(time.Now())
		}
		inside = float64(a.ns) / n
	}) / n
	return clockCost{pair: pair, inside: inside}
}

// tracedResult is what one traced run reports.
type tracedResult struct {
	metrics      metrics
	attempted    int
	failed       int
	firstFailure string
	traceFile    string
	warnings     []string
}

// passesFor runs whole passes for at least `seconds`, and at least
// minTracedPasses of them, and returns their samples.
func (r *tracedResult) passesFor(p pass, tr *tracer, seconds float64) []passSample {
	var out []passSample
	start := time.Now()
	for len(out) < minTracedPasses || time.Since(start).Seconds() < seconds {
		s := runPass(p, tr, func(op, why string) {
			if r.firstFailure == "" {
				r.firstFailure = op + ": " + why
			}
		})
		r.attempted += p.ops()
		r.failed += s.failed
		out = append(out, s)
	}
	return out
}

func wallsMs(samples []passSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.wall.Nanoseconds()) / 1e6
	}
	return out
}

func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// spanMs lists the durations, in ms, of the spans with the given name.
func (tr *tracer) spanMs(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name && s.Calls == 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// traced runs the probes and all four workloads and returns every per-layer
// metric.
func traced(selected workload, seed int64, seconds float64) (tracedResult, error) {
	r := tracedResult{metrics: metrics{}}
	out := r.metrics
	clock := probeClockCost()
	out.set("trace.clock_ns", clock.pair)
	sm := probeSim(out)
	lm := probeLive(out)
	if err := probeExplore(out, seed); err != nil {
		return r, err
	}
	probeBatch(out)

	for _, w := range workloads {
		budget := otherWorkloadSeconds
		if w.name == selected.name {
			budget = seconds / 4
		}
		p, err := setUp(w, seed, nil)
		if err != nil {
			return r, err
		}
		goroutines := runtime.NumGoroutine()
		plain := r.passesFor(p, nil, budget)
		tr := newTracer()
		tracedWalls := wallsMs(r.passesFor(p, tr, budget))
		plainP50 := median(wallsMs(plain))
		out.set("trace.overhead_x."+w.name, ratio(median(tracedWalls), plainP50))

		wallNs := sum(tracedWalls) * 1e6
		var covered float64
		switch w.name {
		case "engine-mix":
			covered = engineLayers(out, tr, clock, sm, wallNs)
		case "live-mix":
			covered = liveLayers(out, tr, clock, sm, lm)
			time.Sleep(10 * time.Millisecond) // let finished workers be reaped before counting
			out.set("live.leaked_goroutines", float64(runtime.NumGoroutine()-goroutines))
			base, err := engineBaseline(p.(casePass).cases, len(plain))
			if err != nil {
				return r, err
			}
			out.set("live.gap_x", ratio(plainP50, base))
		case "wire-cluster":
			covered = wireLayers(out, tr)
			onLive := casePass{p.(casePass).cases, liveOp}
			out.set("wire.gap_x", ratio(plainP50, median(wallsMs(r.passesFor(onLive, nil, 0)))))
		case "explore-certify":
			covered = exploreLayers(tr, clock, sm)
			if err := exploreCaseLayers(out, p.(explorePass).cases); err != nil {
				return r, err
			}
		}
		un := 1 - ratio(covered, wallNs)
		out.set("trace.unattributed_share."+w.name, un)
		if un > unattributedWarn {
			r.warnings = append(r.warnings, fmt.Sprintf(
				"%s: %.0f%% of the traced pass wall is covered by no layer figure: a layer is unmeasured", w.name, 100*un))
		}
		if w.name == selected.name {
			if r.traceFile, err = tr.write(w.name, seed, clock.pair); err != nil {
				return r, err
			}
		}
	}
	if miss := out.missing(perLayerDefs); len(miss) > 0 {
		return r, fmt.Errorf("traced run left per-layer metrics unmeasured: %v", miss)
	}
	return r, nil
}

// timedCovered is the time the decorators measured inside core and adversary
// (building the process bodies, stepping them, consulting the adversary),
// plus the tracer's own cost of timing those calls.
func timedCovered(tr *tracer, clock clockCost) float64 {
	adv := tr.adv.total()
	return clock.selfNs(tr.build) + clock.selfNs(tr.step) + clock.selfNs(adv) +
		float64(tr.build.calls+tr.step.calls+adv.calls)*clock.pair
}

// engineLayers takes the core, adversary and sim figures from a traced
// engine-mix run and returns the part of its wall the layers account for:
// core and adversary as timed, sim as the null-stepper model predicts it.
func engineLayers(out metrics, tr *tracer, clock clockCost, sm simModel, wallNs float64) float64 {
	passes := float64(tr.passes)
	for _, name := range protoNames {
		pa := tr.proto(name)
		out.set("core.step_ns."+name, max(0, median(pa.stepNs)-clock.inside))
		out.set("core.steps_per_pass."+name, float64(pa.steps)/passes)
		out.set("core.build_us."+name, median(pa.buildUs))
	}
	stepNs := clock.selfNs(tr.step)
	advNs := clock.selfNs(tr.adv.total())
	out.set("core.step_share", ratio(stepNs, wallNs))
	out.set("adversary.on_action_ns", ratio(clock.selfNs(tr.adv.onAction), float64(tr.adv.onAction.calls)))
	out.set("adversary.on_deliver_ns", ratio(clock.selfNs(tr.adv.onDeliver), float64(tr.adv.onDeliver.calls)))
	out.set("adversary.calls_per_pass", float64(tr.adv.total().calls)/passes)
	out.set("adversary.share", ratio(advNs, wallNs))

	// The engine's self time, by subtraction: what is left of the sim.run
	// spans once the calls back into core and adversary, and the cost of
	// timing them, are taken out. The per-process constructors run inside
	// the spans; the plans do not.
	inside := tr.step
	inside.merge(tr.adv.total())
	inside.merge(callAcc{calls: tr.build.calls - tr.plans.calls, ns: tr.build.ns - tr.plans.ns})
	self := float64(tr.runNs) - float64(inside.ns) - clock.outsideNs(inside.calls)
	out.set("sim.self_ns_per_event", ratio(self, float64(tr.counts.events)))
	out.set("sim.self_share", ratio(self, wallNs))
	out.set("sim.events_per_pass", float64(tr.counts.events)/passes)
	out.set("sim.messages_per_pass", float64(tr.counts.messages)/passes)
	out.set("sim.rounds_per_pass", float64(tr.counts.rounds)/passes)
	out.set("sim.deferred_per_pass", float64(tr.counts.deferred)/passes)
	return timedCovered(tr, clock) + sm.predict(tr.counts)
}

// liveLayers takes the barrier figures from a traced live-mix run. Covered:
// core and adversary as timed, the coordinator's engine-equivalent work as
// the sim model predicts it, and the barrier as the null-stepper figure for
// the run's t predicts it. Steps of different processes overlap on the live
// plane, so the sum can exceed the wall (a negative unattributed share).
func liveLayers(out metrics, tr *tracer, clock clockCost, sm simModel, lm liveModel) float64 {
	out.set("live.grant_wait_us_p50", median(nsToFloat(tr.grantWait))/1e3)
	out.set("live.turnaround_us_p50", median(nsToFloat(tr.turnaround))/1e3)
	out.set("live.chan_hop_ns_p50", median(nsToFloat(tr.chanHop)))
	var barrier float64
	for _, run := range tr.liveRuns {
		barrier += lm.setupNs[run.t] + float64(run.events)*max(0, lm.perRoundProc[run.t]-sm.perRoundProc)
	}
	// The transport decorator reads the clock four times per granted step.
	barrier += float64(tr.counts.events) * 2 * clock.pair
	return timedCovered(tr, clock) + sm.predict(tr.counts) + barrier
}

// wireLayers takes the wire transport's figures from a traced wire-cluster
// run. Every phase of an op is timed directly, so covered is their sum:
// ready, rounds in flight, the coordinator's turnaround between them, close
// and waiting for the joins to exit.
func wireLayers(out metrics, tr *tracer) float64 {
	ready, joinExit := tr.spanMs("wire.ready"), tr.spanMs("wire.join_exit")
	rtt := sorted(nsToFloat(tr.rtt))
	out.set("wire.ready_ms", median(ready))
	out.set("wire.rtt_us_p50", quantile(rtt, 0.5)/1e3)
	out.set("wire.rtt_us_p90", quantile(rtt, 0.9)/1e3)
	out.set("wire.us_per_round", median(tr.usPerRound))
	out.set("wire.frames_per_pass", float64(tr.frames)/float64(tr.passes))
	out.set("wire.close_ms", median(tr.closeMs))
	out.set("wire.join_exit_ms", median(joinExit))
	out.set("wire.join_error_share", ratio(float64(tr.joinErrs), float64(tr.joinsRun)))
	return (sum(ready)+sum(joinExit)+sum(tr.closeMs))*1e6 + float64(tr.inFlightNs) + float64(tr.turns.ns)
}

// exploreLayers returns what the layers under explore account for in a
// traced explore-certify run: core as timed, the engine as the sim model and
// the per-run reset floor predict it. explore's own unrank, prune and certify
// pipeline cannot be timed from outside Enumerate, so it is the unattributed
// rest.
func exploreLayers(tr *tracer, clock clockCost, sm simModel) float64 {
	return timedCovered(tr, clock) + sm.predict(tr.counts) + float64(tr.counts.engineRuns)*sm.resetNs
}

// exploreCaseLayers walks each explore-certify case untraced and takes the
// figures a Report gives.
func exploreCaseLayers(out metrics, cases []*exploreCase) error {
	var wallNs float64
	var walked, runs, collapsed, schedules int64
	for _, c := range cases {
		var rep *explore.Report
		var err error
		ns := timeMedian(func() {
			rep, err = c.target.Enumerate(c.space, explore.Options{Jobs: 1, Full: c.full})
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		out.set("explore.ns_per_walked."+c.name, ns/float64(rep.Walked))
		wallNs += ns
		walked += rep.Walked
		runs += rep.EngineRuns
		collapsed += rep.Collapsed
		schedules += rep.Schedules
	}
	out.set("explore.ns_per_engine_run", ratio(wallNs, float64(runs)))
	out.set("explore.walked_per_engine_run", ratio(float64(walked), float64(runs)))
	out.set("explore.collapsed_share", ratio(float64(collapsed), float64(schedules)))
	return nil
}
