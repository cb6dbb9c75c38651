// Command doall runs one work-performing protocol on an (n, t) instance
// under a chosen failure pattern and prints the paper's cost measures. The
// sweep subcommand crosses protocols × failure patterns × (n, t) grids ×
// seeds and runs the whole set in parallel via internal/batch. The explore
// subcommand walks the instance's crash-schedule space (exhaustively, or by
// worst-case search) and certifies the paper's bounds on every execution.
// The live subcommand runs a protocol on the concurrent execution plane —
// one goroutine per process over a latency-modelled transport — optionally
// replaying a crash schedule and comparing against the sim plane. The serve
// and join subcommands split the same live plane across OS processes: serve
// hosts the coordinator and listens, each join hosts a slice of the workers
// over TCP or a unix socket, and killing a join mid-run is a real crash
// fault with the same certificate semantics as a scheduled crash.
//
// Usage:
//
//	doall -protocol B -units 256 -workers 16 -failures cascade
//	doall -protocol C -units 16 -workers 8 -failures random -crash-p 0.05 -seed 7
//	doall -protocol D -units 256 -workers 16 -failures schedule -crash 1@10 -crash 2@20
//	doall sweep -protocols a,b,d -failures none,cascade,random -units 64,256 -workers 8,16 -seeds 1,2
//	doall explore -protocol A -n 8 -t 3 -crashes 2
//	doall explore -protocol B -n 64 -t 8 -crashes 7 -mode search -budget 5000
//	doall live -protocol B -units 256 -workers 16 -schedule 0@a7:keep:p0,1@r4 -jitter 100us -compare
//	doall live -protocol D -units 512 -workers 64 -seed 7 -compare
//	doall serve -protocol B -units 256 -workers 16 -joins 2 -listen 127.0.0.1:9095 -compare
//	doall join -connect 127.0.0.1:9095
//	doall serve -protocol D -units 64 -workers 8 -joins 2 -listen unix:/tmp/doall.sock -chaos-drop 0.1
//	doall join -connect unix:/tmp/doall.sock -chaos-drop 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/sim"
	"repro/internal/trace"
)

// crashFlags collects repeatable -crash PID@ROUND flags.
type crashFlags []doall.Crash

func (c *crashFlags) String() string { return fmt.Sprint(*c) }

func (c *crashFlags) Set(v string) error {
	pid, round, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("crash spec %q: want PID@ROUND", v)
	}
	p, err := strconv.Atoi(pid)
	if err != nil {
		return fmt.Errorf("crash spec %q: %w", v, err)
	}
	r, err := strconv.ParseInt(round, 10, 64)
	if err != nil {
		return fmt.Errorf("crash spec %q: %w", v, err)
	}
	*c = append(*c, doall.Crash{Process: p, Round: r})
	return nil
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "sweep":
		err = runSweep(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "explore":
		err = runExplore(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "live":
		err = runLive(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = runServe(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "join":
		err = runJoin(os.Args[2:])
	default:
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protoName = flag.String("protocol", "b", protocolUsage(runProtocols))
		units     = flag.Int("units", 64, "number of work units (n)")
		workers   = flag.Int("workers", 16, "number of processes (t)")
		failures  = flag.String("failures", "none", "failure pattern: none|random|cascade|schedule")
		crashP    = flag.Float64("crash-p", 0.02, "per-action crash probability (random)")
		maxCrash  = flag.Int("max-crashes", -1, "max failures (-1 = workers-1)")
		seed      = flag.Int64("seed", 1, "failure seed (random)")
		between   = flag.Int("units-between", -1, "units before each crash (cascade; -1 = n/t)")
		k         = flag.Int("k", 0, "checkpoint count (uniform protocol)")
		bandwidth = flag.Int("bandwidth", 0, "per-round per-process outbound message cap (congested clique; 0 = unlimited)")
		verbose   = flag.Bool("v", false, "print per-worker stats")
		showTrace = flag.Bool("trace", false, "print an ASCII execution timeline")
		crashes   crashFlags
	)
	flag.Var(&crashes, "crash", "scheduled crash PID@ROUND (repeatable; schedule pattern)")
	flag.Parse()

	proto, err := runProtocol(*protoName)
	if err != nil {
		return err
	}
	mc := *maxCrash
	if mc < 0 {
		mc = *workers - 1
	}
	ub := *between
	if ub < 0 {
		ub = max(1, *units / *workers)
	}
	var f doall.Failures
	switch *failures {
	case "none":
		f = doall.NoFailures()
	case "random":
		f = doall.RandomFailures(*crashP, mc, *seed)
	case "cascade":
		f = doall.CascadeFailures(ub, mc)
	case "schedule":
		f = doall.ScheduledFailures(crashes...)
	default:
		return fmt.Errorf("unknown failure pattern %q", *failures)
	}

	var rec *trace.Recorder
	cfg := doall.Config{
		Units: *units, Workers: *workers, Protocol: proto,
		Failures: f, CheckpointK: *k, Bandwidth: *bandwidth, CheckInvariants: true,
	}
	if *showTrace {
		rec = trace.NewRecorder(0)
		hook := rec.Hook()
		cfg.Tracer = func(e doall.TraceEvent) {
			hook(sim.Event{
				Round: e.Round, PID: e.Worker, Work: e.Work, Sent: e.Sent,
				Crashed: e.Crashed, Halted: e.Halted,
			})
		}
	}
	res, err := doall.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("protocol:  %v (n=%d, t=%d, failures=%s)\n", proto, *units, *workers, *failures)
	fmt.Printf("work:      %d performed (%d distinct of %d)\n", res.Work, res.WorkDistinct, *units)
	fmt.Printf("messages:  %s\n", formatMessages(res.Messages, res.MessagesByKind))
	fmt.Printf("effort:    %d\n", res.Effort())
	fmt.Printf("rounds:    %d (simulated %d events)\n", res.Rounds, res.Events)
	fmt.Printf("processes: %d survived, %d crashed\n", res.Survivors, res.Crashes)
	if res.Deferred > 0 {
		fmt.Printf("deferred:  %d sends queued past the bandwidth cap of %d\n", res.Deferred, *bandwidth)
	}
	fmt.Printf("complete:  %v\n", res.Complete)
	if *verbose {
		fmt.Println("\nworker  status      work  sent  retired@")
		for i, w := range res.Workers {
			fmt.Printf("%6d  %-10s  %4d  %4d  %d\n", i, w.Status, w.Work, w.Sent, w.RetireRound)
		}
	}
	if rec != nil {
		fmt.Println()
		fmt.Print(rec.Timeline(160))
		fmt.Println()
		fmt.Print(rec.Summary())
	}
	if res.Survivors > 0 && !res.Complete {
		return fmt.Errorf("GUARANTEE VIOLATED: survivors exist but work incomplete")
	}
	return nil
}
