package main

import "fmt"

// metricDef declares one metric: the single source BENCHMARK.json, the
// README tables, the printed report and -agree are checked against.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end: share of the parent's median it may worsen by
	moves  string  // per-layer: the end-to-end metric it should move, and where
}

// endToEndDefs are the metrics a user of the system sees; every workload
// reports all of them. BENCHMARK.json takes one bound per metric, so each
// serves all four workloads. The wall-clock bounds are the widest the
// contract allows: on the 2-core VM this was written on, whole runs drift by
// 10-20 % over minutes whatever is measured (README, "Noise"), and a bound
// below the drift would reject the benchmark's own repeat.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "pass_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "pass_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_pass", unit: "count", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// failedShareBound is the bound -agree holds failed_share to: any rise is a
// regression. failed_share is normally 0, so it cannot be an end_to_end
// entry of BENCHMARK.json (a bound there is a share of the parent's median);
// the result line carries it as failed ÷ attempted instead.
const failedShareBound = 0

var protoNames = []string{"a", "b", "c", "d", "gossip"}

var exploreCaseNames = []string{"a", "b", "c", "d", "gossip-cap", "trivial-full", "trivial-canon"}

// perLayerDefs are the metrics of single layers, all taken in the traced run
// from outside the layers.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit, better, moves string) {
		d = append(d, metricDef{name: name, unit: unit, better: better, moves: moves})
	}
	const (
		engineTP  = "throughput_per_s, pass_p50_ms on engine-mix"
		liveTP    = "throughput_per_s, pass_p90_ms on live-mix"
		wireTP    = "throughput_per_s, pass_p50_ms on wire-cluster"
		exploreTP = "throughput_per_s on explore-certify"
	)
	for _, p := range protoNames {
		add("core.step_ns."+p, "ns", "lower", engineTP+"; also live-mix")
	}
	for _, p := range protoNames {
		add("core.steps_per_pass."+p, "count", "lower", engineTP+" (exact count)")
	}
	for _, p := range protoNames {
		add("core.build_us."+p, "us", "lower", exploreTP+"; d and gossip (1 ms a run) also on engine-mix, live-mix")
	}
	add("core.step_share", "share", "lower", engineTP)

	add("adversary.on_action_ns", "ns", "lower", engineTP+" (fault-storm, random cases)")
	add("adversary.on_deliver_ns", "ns", "lower", engineTP+" (fault-storm case)")
	add("adversary.calls_per_pass", "count", "lower", engineTP+" (exact count)")
	add("adversary.share", "share", "lower", engineTP)

	add("sim.self_ns_per_event", "ns", "lower", engineTP)
	add("sim.self_share", "share", "lower", engineTP)
	add("sim.null_ns_per_round", "ns", "lower", engineTP+" (single-active A, B, C cases: one event a round)")
	add("sim.null_ns_per_round_proc", "ns", "lower", engineTP+", live-mix less")
	add("sim.null_ns_per_message", "ns", "lower", engineTP+" (gossip cases)")
	add("sim.null_ns_per_bcast_recipient", "ns", "lower", engineTP+" (D cases)")
	add("sim.null_ns_per_deferred", "ns", "lower", engineTP+" (capped gossip case only)")
	add("sim.null_ns_per_sleep_wake", "ns", "lower", engineTP+" (A, B, C cases)")
	add("sim.reset_us", "us", "lower", exploreTP+" and nothing else")
	add("sim.events_per_pass", "count", "lower", engineTP+" (exact count)")
	add("sim.messages_per_pass", "count", "lower", engineTP+" (exact count)")
	add("sim.rounds_per_pass", "count", "lower", "none: simulated time, not host time (exact count)")
	add("sim.deferred_per_pass", "count", "lower", engineTP+" (exact count)")

	add("live.null_ns_per_round_proc.t16", "ns", "lower", liveTP)
	add("live.null_ns_per_round_proc.t64", "ns", "lower", liveTP)
	add("live.grant_wait_us_p50", "us", "lower", liveTP)
	add("live.turnaround_us_p50", "us", "lower", liveTP+"; also wire-cluster")
	add("live.chan_hop_ns_p50", "ns", "lower", liveTP)
	add("live.plane_setup_us", "us", "lower", liveTP+"; wire-cluster less")
	add("live.gap_x", "x", "lower", liveTP+" (base: engine, same cases)")
	add("live.leaked_goroutines", "count", "lower", "none: must stay 0")

	add("wire.ready_ms", "ms", "lower", wireTP)
	add("wire.rtt_us_p50", "us", "lower", wireTP)
	add("wire.rtt_us_p90", "us", "lower", "pass_p90_ms on wire-cluster")
	add("wire.us_per_round", "us", "lower", wireTP)
	add("wire.frames_per_pass", "count", "lower", wireTP)
	add("wire.close_ms", "ms", "lower", wireTP)
	add("wire.join_exit_ms", "ms", "lower", wireTP)
	add("wire.join_error_share", "share", "lower", "failed ÷ attempted on wire-cluster")
	add("wire.gap_x", "x", "lower", wireTP+" (base: live, same cases)")

	for _, c := range exploreCaseNames {
		add("explore.ns_per_walked."+c, "ns", "lower", exploreTP)
	}
	add("explore.ns_per_engine_run", "ns", "lower", exploreTP)
	add("explore.walked_per_engine_run", "ratio", "higher", exploreTP+" (exact)")
	add("explore.collapsed_share", "share", "lower", "none: a property of the spaces (exact)")
	add("explore.prune_speedup_x", "x", "higher", exploreTP+" (base: NoPrune)")
	add("explore.canon_speedup_x", "x", "higher", exploreTP+" (base: Full)")
	add("explore.certify_us", "us", "lower", exploreTP)
	add("explore.count_us", "us", "lower", "none: microseconds a walk")

	add("batch.fanout_speedup_x", "x", "higher", "cross-check: none of the four workloads fans out")
	add("batch.map_ns_per_item", "ns", "lower", "cross-check: explore-certify shards through batch.Map")
	add("experiments.suite_s", "s", "lower", "cross-check: moves with engine-mix and explore-certify")
	add("experiments.bound_failures", "count", "lower", "none: must stay 0")

	add("trace.clock_ns", "ns", "lower", "none: the tracer's own cost per timed call")
	for _, w := range workloads {
		add("trace.overhead_x."+w.name, "x", "lower", "none: traced ÷ untraced pass_p50_ms")
	}
	for _, w := range workloads {
		add("trace.unattributed_share."+w.name, "share", "lower", "none: above 0.20 a layer is unmeasured")
	}
	return d
}

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a declared metric name to its measured value.
type metrics map[string]metric

// set records a per-layer metric; an undeclared name is a bug in the
// benchmark.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf(perLayerDefs, name)
	if !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// missing lists the declared metrics m lacks.
func (m metrics) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes the metrics in declaration order.
func (m metrics) print(defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("  %-44s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// metrics renders the end-to-end figures under their declared names.
func (e endToEnd) metrics() metrics {
	vals := map[string]float64{
		"setup_s": e.setupS, "throughput_per_s": e.throughput,
		"pass_p50_ms": e.passP50Ms, "pass_p90_ms": e.passP90Ms,
		"allocs_per_pass": e.allocsPerPass, "peak_rss_mb": e.peakRSSMB,
	}
	out := metrics{}
	for _, d := range endToEndDefs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
