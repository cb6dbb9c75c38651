package main

import (
	"flag"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runLive executes one protocol on the live concurrent execution plane:
// one goroutine per process over a channel transport with a configurable
// latency model, fault schedules replayed from the adversary.Vector
// grammar. With -compare the same configuration also runs on the
// single-threaded sim engine and the two planes' Results and traces must
// be identical — the command fails loudly if concurrency leaked into the
// outcome.
func runLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ExitOnError)
	var (
		protoName = fs.String("protocol", "b", protocolUsage(planeProtocols))
		units     = fs.Int("units", 64, "number of work units (n)")
		workers   = fs.Int("workers", 16, "number of processes (t), one goroutine each")
		schedule  = fs.String("schedule", "", "fault schedule in the adversary.Vector grammar, e.g. 0@a7:keep:p0,1@r4")
		seed      = fs.Int64("seed", 1, "transport latency seed (deterministic -seed mode)")
		latency   = fs.Duration("latency", 0, "fixed per-yield transport delay")
		jitter    = fs.Duration("jitter", 0, "max random extra transport delay")
		compare   = fs.Bool("compare", false, "also run the sim plane and require identical Result and trace")
		verbose   = fs.Bool("v", false, "print per-worker stats")
		showTrace = fs.Bool("trace", false, "print an ASCII execution timeline")
		loss      = fs.Float64("loss", 0, "drop each delivered message with this probability (seeded, replayable)")
		lossSeed  = fs.Int64("loss-seed", 1, "rng seed for -loss")
		maxDrops  = fs.Int("max-drops", 8, "at most this many messages lost to -loss")
		bandwidth = fs.Int("bandwidth", 0, "per-round per-process outbound message cap (congested clique; 0 = the protocol's own, unlimited for all but gossip-cap)")
		crashes   crashFlags
	)
	fs.Var(&crashes, "crash", "scheduled crash PID@ROUND (repeatable, merged into the schedule)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := validateGrid(*units, *workers); err != nil {
		return err
	}
	vec, err := buildSchedule(*schedule, crashes, *workers)
	if err != nil {
		return err
	}

	opt, err := newPlaneOptions(*protoName, *units, *workers, *bandwidth,
		lossyAdversary(vec, *loss, *maxDrops, *lossSeed))
	if err != nil {
		return err
	}

	rec := trace.NewRecorder(0)
	liveRes, err := runLivePlane(opt, live.NewChanTransport(live.Latency{
		Base: *latency, Jitter: *jitter, Seed: *seed,
	}), rec.Hook())
	if err != nil {
		return err
	}

	fmt.Printf("plane:     live (%d goroutines, latency=%v jitter=%v seed=%d)\n",
		*workers, *latency, *jitter, *seed)
	fmt.Printf("protocol:  %s (n=%d, t=%d, schedule=%s)\n", strings.ToUpper(*protoName), *units, *workers, vec)
	printResultBlock(liveRes, *units)

	if *compare {
		if err := compareAgainstSim(opt, liveRes, rec); err != nil {
			return err
		}
	}
	return finishReport(liveRes, *verbose, *showTrace, rec)
}

// printResultBlock renders the standard cost-measure block; live and serve
// share it so cluster output cannot drift from single-process output.
func printResultBlock(res sim.Result, units int) {
	fmt.Printf("work:      %d performed (%d distinct of %d)\n", res.WorkTotal, res.WorkDistinct, units)
	fmt.Printf("messages:  %s\n", formatMessages(res.Messages, res.MessagesByKind))
	fmt.Printf("effort:    %d\n", res.Effort())
	fmt.Printf("rounds:    %d (simulated %d events)\n", res.Rounds, res.Events)
	fmt.Printf("processes: %d survived, %d crashed\n", res.Survivors, res.Crashes)
	if res.Restarts > 0 || res.Dropped > 0 || res.Omitted > 0 {
		fmt.Printf("faults:    %d restarts, %d dropped in transit, %d sends omitted\n",
			res.Restarts, res.Dropped, res.Omitted)
	}
	if res.Deferred > 0 {
		fmt.Printf("deferred:  %d sends queued past the bandwidth cap\n", res.Deferred)
	}
	fmt.Printf("complete:  %v\n", res.Complete())
}

// compareAgainstSim replays the same configuration on the sim engine and
// fails loudly unless Result and trace are identical — the -compare flag of
// both live and serve.
func compareAgainstSim(opt planeOptions, liveRes sim.Result, rec *trace.Recorder) error {
	simRec := trace.NewRecorder(0)
	simRes, err := runSimPlane(opt, simRec.Hook())
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(simRes, liveRes) {
		return fmt.Errorf("PLANES DIVERGE:\nsim:  %+v\nlive: %+v", simRes, liveRes)
	}
	if d := trace.Diff(rec.Events(), simRec.Events()); d != "" {
		return fmt.Errorf("PLANE TRACES DIVERGE: %s", d)
	}
	fmt.Printf("compare:   sim plane identical (%d events, traces equal)\n", simRes.Events)
	return nil
}

// finishReport prints the optional per-worker table and timeline, then
// enforces the paper's completion guarantee.
func finishReport(res sim.Result, verbose, showTrace bool, rec *trace.Recorder) error {
	if verbose {
		fmt.Println("\nworker  status      work  sent  retired@")
		for i, w := range res.PerProc {
			fmt.Printf("%6d  %-10s  %4d  %4d  %d\n", i, w.Status, w.Work, w.Sent, w.RetireRound)
		}
	}
	if showTrace {
		fmt.Println()
		fmt.Print(rec.Timeline(160))
	}
	if res.Survivors > 0 && !res.Complete() {
		return fmt.Errorf("GUARANTEE VIOLATED: survivors exist but work incomplete")
	}
	return nil
}

// planeOptions is one configuration runnable on either plane.
type planeOptions struct {
	n, t         int
	maxActive    int
	bandwidth    int
	newSteppers  func() (func(int) sim.Stepper, error)
	newAdversary func() sim.Adversary
}

// newPlaneOptions resolves a live or serve protocol name. A bandwidth of 0
// takes the protocol's own cap (gossip-cap's), as explore certifies it.
func newPlaneOptions(name string, n, t, bandwidth int, newAdversary func() sim.Adversary) (planeOptions, error) {
	_, p, err := lookupProtocol(planeProtocols, name)
	if err != nil {
		return planeOptions{}, err
	}
	if bandwidth == 0 && p.Bandwidth != nil {
		bandwidth = p.Bandwidth(t)
	}
	opt := planeOptions{
		n: n, t: t, bandwidth: bandwidth,
		newSteppers: func() (func(int) sim.Stepper, error) {
			return core.SteppersFor(p.Build(n, t, core.Params{}))
		},
		newAdversary: newAdversary,
	}
	if p.SingleActive {
		opt.maxActive = 1
	}
	return opt, nil
}

// lossyAdversary replays vec, plus the seeded -loss stream when loss > 0.
// Each plane gets a fresh adversary: both are stateful and single-use, and
// the same seed must lose the same messages on both planes for -compare to
// hold.
func lossyAdversary(vec adversary.Vector, loss float64, maxDrops int, seed int64) func() sim.Adversary {
	return func() sim.Adversary {
		if loss <= 0 {
			return vec.Adversary()
		}
		return adversary.NewChain(vec.Adversary(), adversary.NewLoss(loss, maxDrops, seed))
	}
}

func runLivePlane(opt planeOptions, tr live.Transport, hook func(sim.Event)) (sim.Result, error) {
	steppers, err := opt.newSteppers()
	if err != nil {
		return sim.Result{}, err
	}
	return live.Run(live.Config{
		NumProcs: opt.t, NumUnits: opt.n,
		Adversary: opt.newAdversary(), MaxActive: opt.maxActive,
		Bandwidth:       opt.bandwidth,
		DetailedMetrics: true, Tracer: hook, Transport: tr,
	}, steppers)
}

func runSimPlane(opt planeOptions, hook func(sim.Event)) (sim.Result, error) {
	steppers, err := opt.newSteppers()
	if err != nil {
		return sim.Result{}, err
	}
	return core.RunSteppers(opt.n, opt.t, steppers, core.RunOptions{
		Adversary: opt.newAdversary(), MaxActive: opt.maxActive,
		Bandwidth:       opt.bandwidth,
		DetailedMetrics: true, Tracer: hook,
	})
}

// formatMessages renders a message total with its per-kind breakdown; the
// run and live subcommands share it so their output cannot drift apart.
func formatMessages(total int64, byKind map[string]int64) string {
	var b strings.Builder
	b.WriteString(strconv.FormatInt(total, 10))
	if len(byKind) > 0 {
		kinds := slices.Sorted(maps.Keys(byKind))
		parts := make([]string, len(kinds))
		for i, kind := range kinds {
			parts[i] = fmt.Sprintf("%s=%d", kind, byKind[kind])
		}
		fmt.Fprintf(&b, "  (%s)", strings.Join(parts, " "))
	}
	return b.String()
}
