package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/trace"
)

// runServe is the coordinator half of a multi-process cluster: it listens,
// waits for -joins worker processes (doall join) to connect, and runs the
// unchanged live plane with the workers on the far side of the wire. A join
// that vanishes past -grace is a real crash fault with the certificate
// semantics explore's schedules describe — SIGKILL a join and the Result
// reads exactly like the equivalent scheduled crash of its PID range. With
// -compare the finished cluster Result and trace must match the
// single-threaded sim engine's bit for bit.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		protoName = fs.String("protocol", "b", protocolUsage(planeProtocols))
		units     = fs.Int("units", 64, "number of work units (n)")
		workers   = fs.Int("workers", 16, "number of processes (t), split across the joins")
		joins     = fs.Int("joins", 2, "join processes to wait for; PIDs are split evenly across them")
		listen    = fs.String("listen", "127.0.0.1:0", "listen address: host:port, or unix:/path/to.sock")
		schedule  = fs.String("schedule", "", "crash schedule in the explore grammar, e.g. 0@a7:keep:p0,1@r4")
		seed      = fs.Int64("seed", 1, "join-side latency seed (shipped in the welcome spec)")
		latency   = fs.Duration("latency", 0, "fixed per-yield delay applied by the joins")
		jitter    = fs.Duration("jitter", 0, "max random extra join-side delay")
		grace     = fs.Duration("grace", 3*time.Second, "reconnect grace before a vanished join's workers count as crashed")
		readyWait = fs.Duration("ready-timeout", 60*time.Second, "how long to wait for all joins to connect")
		drop      = fs.Float64("chaos-drop", 0, "drop each outbound frame's first transmission with this probability")
		dup       = fs.Float64("chaos-dup", 0, "duplicate outbound frames with this probability")
		reorder   = fs.Float64("chaos-reorder", 0, "hold outbound frames for reordering with this probability")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for the chaos decisions (deterministic per frame)")
		loss      = fs.Float64("loss", 0, "drop each delivered message with this probability (seeded, replayable)")
		lossSeed  = fs.Int64("loss-seed", 1, "rng seed for -loss")
		maxDrops  = fs.Int("max-drops", 8, "at most this many messages lost to -loss")
		bandwidth = fs.Int("bandwidth", 0, "per-round per-process outbound message cap (congested clique; 0 = the protocol's own, unlimited for all but gossip-cap)")
		compare   = fs.Bool("compare", false, "also run the sim plane and require identical Result and trace")
		verbose   = fs.Bool("v", false, "print per-worker stats")
		showTrace = fs.Bool("trace", false, "print an ASCII execution timeline")
		crashes   crashFlags
	)
	fs.Var(&crashes, "crash", "scheduled crash PID@ROUND (repeatable, merged into the schedule)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := validateGrid(*units, *workers); err != nil {
		return err
	}
	if *joins < 1 {
		return fmt.Errorf("-joins must be at least 1 (got %d)", *joins)
	}
	if *joins > *workers {
		return fmt.Errorf("-joins %d exceeds -workers %d: every join needs at least one PID", *joins, *workers)
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

	network, addr := live.ParseWireAddr(*listen)
	wt, err := live.NewWireTransport(live.WireOptions{
		Network: network, Addr: addr, Joins: *joins,
		Spec: live.WireSpec{
			Protocol: strings.ToLower(*protoName), Units: *units, Workers: *workers,
			Latency: live.Latency{Base: *latency, Jitter: *jitter, Seed: *seed},
		},
		Chaos: live.WireChaos{Drop: *drop, Dup: *dup, Reorder: *reorder, Seed: *chaosSeed},
		Grace: *grace, ReadyTimeout: *readyWait,
	})
	if err != nil {
		return err
	}
	fmt.Printf("listening: %s %s (waiting for %d joins)\n", network, wt.Addr(), *joins)
	if err := wt.WaitReady(); err != nil {
		return err
	}
	fmt.Printf("cluster:   %d joins connected, %d workers\n", *joins, *workers)

	rec := trace.NewRecorder(0)
	clusterRes, err := live.Run(live.Config{
		NumProcs: *workers, NumUnits: *units,
		Adversary: opt.newAdversary(), MaxActive: opt.maxActive,
		Bandwidth:       opt.bandwidth,
		DetailedMetrics: true, Tracer: rec.Hook(), Transport: wt,
	}, nil)
	if err != nil {
		return err
	}

	fmt.Printf("plane:     cluster (%d joins over %s, latency=%v jitter=%v seed=%d grace=%v)\n",
		*joins, network, *latency, *jitter, *seed, *grace)
	fmt.Printf("protocol:  %s (n=%d, t=%d, schedule=%s)\n", strings.ToUpper(*protoName), *units, *workers, vec)
	printResultBlock(clusterRes, *units)

	if *compare {
		if err := compareAgainstSim(opt, clusterRes, rec); err != nil {
			return err
		}
	}
	return finishReport(clusterRes, *verbose, *showTrace, rec)
}
