package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	doall "repro"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// The probes price one layer at a time with process bodies that do nothing
// but exercise it (null steppers), or by calling the layer's API directly.
// Each figure is the median of probeRepeats measurements.
const probeRepeats = 5

// nullMsg is the payload null steppers send.
type nullMsg struct{}

func (nullMsg) Kind() string { return "null" }

// nullKind selects what a null stepper does each round.
type nullKind int

const (
	nullIdle      nullKind = iota // commit an empty action
	nullSolo                      // process 0 idles, the others halt at once: one event per round
	nullSend                      // send nullFan point-to-point messages
	nullSendEvery                 // the same, every other round (so a cap of nullFan/2 drains)
	nullBcast                     // broadcast to everyone else
	nullSleep                     // sleep two rounds ahead: one sleep/wake per step
	nullHalt                      // halt at once
)

const nullFan = 4

// nullStepper is a process body with no protocol: it repeats one engine
// operation for a fixed number of steps, draining its inbox as any protocol
// would, then halts.
type nullStepper struct {
	kind  nullKind
	left  int
	sends []sim.Send
	all   []int
}

func newNullStepper(kind nullKind, steps, id, t int) *nullStepper {
	s := &nullStepper{kind: kind, left: steps}
	switch kind {
	case nullHalt:
		s.left = 0
	case nullSolo:
		if id != 0 {
			s.left = 0
		}
	case nullSend, nullSendEvery:
		for k := 1; k <= nullFan; k++ {
			s.sends = append(s.sends, sim.Send{To: (id + k) % t, Payload: nullMsg{}})
		}
	case nullBcast:
		for p := 0; p < t; p++ {
			s.all = append(s.all, p)
		}
	}
	return s
}

func (s *nullStepper) Step(p *sim.Proc) sim.Yield {
	p.Drain()
	if s.left == 0 {
		return sim.Yield{Kind: sim.YieldHalt}
	}
	s.left--
	switch s.kind {
	case nullSend:
		return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Sends: s.sends}}
	case nullSendEvery:
		if s.left%2 == 0 {
			return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Sends: s.sends}}
		}
	case nullBcast:
		return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Broadcast: p.BroadcastTo(s.all, nullMsg{})}}
	case nullSleep:
		return sim.Yield{Kind: sim.YieldSleep, Until: p.Now() + 2}
	}
	return sim.Yield{Kind: sim.YieldAction}
}

func nullSteppers(kind nullKind, steps, t int) func(int) sim.Stepper {
	return func(id int) sim.Stepper { return newNullStepper(kind, steps, id, t) }
}

// timeMedian is the median wall time of probeRepeats calls of f, in ns,
// after one untimed call.
func timeMedian(f func()) float64 {
	f()
	ns := make([]float64, probeRepeats)
	for i := range ns {
		t0 := time.Now()
		f()
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// nullEngineRun runs null steppers on a fresh engine and returns the result
// of the last run with the median wall time.
func nullEngineRun(kind nullKind, steps, t, bandwidth int) (sim.Result, float64) {
	var res sim.Result
	ns := timeMedian(func() {
		var err error
		cfg := sim.Config{NumProcs: t, Bandwidth: bandwidth, DetailedMetrics: true}
		res, err = sim.NewStepper(cfg, nullSteppers(kind, steps, t)).Run()
		if err != nil {
			panic(fmt.Sprintf("benchmark: null engine run: %v", err))
		}
	})
	return res, ns
}

// simModel prices the engine's own work in a run from the run's counters:
// the figures the null steppers give, each times the count it is a cost of.
type simModel struct {
	perRound, perRoundProc, perMessage, perBcastRecipient float64
	perDeferred, perSleepWake, resetNs                    float64
}

func (m simModel) predict(c counters) float64 {
	return float64(c.executed)*m.perRound +
		float64(c.events-c.sleeps)*m.perRoundProc +
		float64(c.sleeps)*m.perSleepWake +
		float64(c.p2p)*m.perMessage +
		float64(c.bcastTo)*m.perBcastRecipient +
		float64(c.deferred)*m.perDeferred
}

// probeSim prices the engine's round loop at t=64.
func probeSim(out metrics) simModel {
	const t, rounds = 64, 2000
	var m simModel
	// A round of t idle processes and a round of one: two equations for the
	// fixed cost of a round and the cost of each process stepped in it.
	_, idleNs := nullEngineRun(nullIdle, rounds, t, 0)
	_, soloNs := nullEngineRun(nullSolo, rounds, t, 0)
	m.perRoundProc = (idleNs - soloNs) / (rounds * (t - 1))
	m.perRound = max(0, soloNs/rounds-m.perRoundProc)

	over := func(res sim.Result, ns float64) float64 {
		return ns - float64(res.Rounds)*m.perRound - float64(res.Events)*m.perRoundProc
	}
	send, sendNs := nullEngineRun(nullSend, rounds/4, t, 0)
	m.perMessage = over(send, sendNs) / float64(send.Messages)
	bcast, bcastNs := nullEngineRun(nullBcast, rounds/16, t, 0)
	m.perBcastRecipient = over(bcast, bcastNs) / float64(bcast.Messages)
	_, openNs := nullEngineRun(nullSendEvery, rounds/2, t, 0)
	capped, cappedNs := nullEngineRun(nullSendEvery, rounds/2, t, nullFan/2)
	m.perDeferred = (cappedNs - openNs) / float64(capped.Deferred)
	sleep, sleepNs := nullEngineRun(nullSleep, rounds, t, 0)
	m.perSleepWake = (sleepNs - float64(rounds)*m.perRound) / float64(sleep.Events)

	// The per-schedule floor explore pays: rearm a recycled engine and run
	// processes that halt at once.
	eng := new(sim.Engine)
	halt := nullSteppers(nullHalt, 0, 8)
	const resets = 1 << 12
	m.resetNs = timeMedian(func() {
		for i := 0; i < resets; i++ {
			eng.Reset(sim.Config{NumProcs: 8}, halt)
			if _, err := eng.Run(); err != nil {
				panic(fmt.Sprintf("benchmark: null reset run: %v", err))
			}
		}
	}) / resets

	out.set("sim.null_ns_per_round", m.perRound)
	out.set("sim.null_ns_per_round_proc", m.perRoundProc)
	out.set("sim.null_ns_per_message", m.perMessage)
	out.set("sim.null_ns_per_bcast_recipient", m.perBcastRecipient)
	out.set("sim.null_ns_per_deferred", m.perDeferred)
	out.set("sim.null_ns_per_sleep_wake", m.perSleepWake)
	out.set("sim.reset_us", m.resetNs/1e3)
	return m
}

// liveModel prices the live plane's barrier, by t: the plane's cost per
// granted step with idle process bodies, which includes the engine-equivalent
// work its coordinator does, and the fixed cost of one live.Run (spawning and
// reaping t workers).
type liveModel struct {
	perRoundProc map[int]float64
	setupNs      map[int]float64
}

func probeLive(out metrics) liveModel {
	m := liveModel{perRoundProc: map[int]float64{}, setupNs: map[int]float64{}}
	liveRun := func(t, steps int) (res sim.Result) {
		res, err := live.Run(live.Config{NumProcs: t}, nullSteppers(nullIdle, steps, t))
		if err != nil {
			panic(fmt.Sprintf("benchmark: null live run: %v", err))
		}
		return res
	}
	for _, t := range []int{16, 64} {
		const runs = 64
		m.setupNs[t] = timeMedian(func() {
			for i := 0; i < runs; i++ {
				liveRun(t, 0)
			}
		}) / runs
		var res sim.Result
		ns := timeMedian(func() { res = liveRun(t, 8000/t) })
		m.perRoundProc[t] = (ns - m.setupNs[t]) / float64(res.Events)
		out.set(fmt.Sprintf("live.null_ns_per_round_proc.t%d", t), m.perRoundProc[t])
	}
	out.set("live.plane_setup_us", m.setupNs[16]/1e3)
	return m
}

// probeExplore measures what explore's options and single-schedule entry
// points expose: what pruning and symmetry reduction buy, one unshared
// replay, and counting a space.
func probeExplore(out metrics, seed int64) error {
	enumerate := func(c *exploreCase, opt explore.Options) func() {
		opt.Jobs = 1
		return func() {
			if _, err := c.target.Enumerate(c.space, opt); err != nil {
				panic(fmt.Sprintf("benchmark: %s: %v", c.name, err))
			}
		}
	}
	b, err := newExploreCase("b", "b", 8, 3, 2, 8, 2, false)
	if err != nil {
		return err
	}
	out.set("explore.prune_speedup_x",
		timeMedian(enumerate(b, explore.Options{NoPrune: true}))/timeMedian(enumerate(b, explore.Options{})))
	triv, err := newExploreCase("trivial", "trivial", 4, 6, 3, 6, 0, false)
	if err != nil {
		return err
	}
	out.set("explore.canon_speedup_x",
		timeMedian(enumerate(triv, explore.Options{Full: true}))/timeMedian(enumerate(triv, explore.Options{})))

	// 256 seeded random schedules of the b target, each replayed and
	// certified on its own.
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]explore.Vector, 256)
	for i := range vecs {
		victims := rng.Perm(b.target.T)[:1+rng.Intn(b.target.MaxCrashes)]
		for _, v := range victims {
			vecs[i] = append(vecs[i], explore.Choice{
				Victim: v, AtAction: 1 + rng.Intn(8), KeepWork: rng.Intn(2) == 0, Prefix: rng.Intn(3),
			})
		}
		vecs[i] = vecs[i].Canonical()
	}
	out.set("explore.certify_us", timeMedian(func() {
		for _, v := range vecs {
			if cert := b.target.Certify(v); len(cert.Violations) > 0 {
				panic(fmt.Sprintf("benchmark: certify %v: %v", v, cert.Violations[0]))
			}
		}
	})/float64(len(vecs))/1e3)

	large := explore.NewSpace(8, 3, 10, 0)
	const counts = 1 << 10
	out.set("explore.count_us", timeMedian(func() {
		for i := 0; i < counts; i++ {
			if large.Count() <= large.CanonicalCount() {
				panic("benchmark: canonical count not below raw count")
			}
		}
	})/counts/1e3)
	return nil
}

// probeBatch cross-checks the fan-out layer: the experiment suite and sweeps
// are engine-mix and explore-certify work behind batch, so these must move
// with those workloads.
func probeBatch(out metrics) {
	jobs := batch.Sweep{
		Protocols: []doall.Protocol{doall.ProtocolA, doall.ProtocolB, doall.ProtocolD},
		Failures: []batch.FailureSpec{
			batch.NoFailureSpec(), batch.CascadeFailureSpec(), batch.RandomFailureSpec(0.02),
		},
		Grid:  []batch.GridPoint{{Units: 96, Workers: 8}, {Units: 192, Workers: 16}},
		Seeds: []int64{1, 2},
	}.Jobs()
	sweep := func(workers int) func() {
		return func() {
			for _, r := range batch.Run(jobs, batch.Options{Workers: workers}) {
				if r.Err != nil || r.GuaranteeViolated() {
					panic(fmt.Sprintf("benchmark: sweep job %s failed: %v", r.Name, r.Err))
				}
			}
		}
	}
	out.set("batch.fanout_speedup_x", timeMedian(sweep(1))/timeMedian(sweep(runtime.NumCPU())))
	const items = 1 << 16
	out.set("batch.map_ns_per_item", timeMedian(func() {
		batch.Map(runtime.NumCPU(), items, func(i int) int { return i })
	})/items)

	t0 := time.Now()
	tables := experiments.Run(experiments.Deterministic(), 1)
	out.set("experiments.suite_s", time.Since(t0).Seconds())
	out.set("experiments.bound_failures", float64(experiments.TotalFailures(tables)))
}

// engineBaseline is the median pass wall, in ms, of the given cases run on
// the engine with nothing installed: the base of live.gap_x.
func engineBaseline(cases []*runCase, passes int) (float64, error) {
	walls := make([]float64, passes)
	for i := range walls {
		t0 := time.Now()
		for _, c := range cases {
			st, err := c.steppers()
			if err != nil {
				return 0, err
			}
			res, err := core.RunSteppers(c.n, c.t, st, c.runOptions(c.faults.adversary(c.seed)))
			if why := c.check(res, err); why != "" {
				return 0, fmt.Errorf("%s on the engine: %s", c.name, why)
			}
		}
		walls[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(walls), nil
}
