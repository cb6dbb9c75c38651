package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
)

// runExplore implements `doall explore`: walk the schedule space of one
// (protocol, n, t) instance — exhaustively for small spaces, by worst-case
// search for larger ones — certifying the paper's bounds on every explored
// execution. Stdout is a pure function of the inputs (timings go to
// stderr), so output is byte-identical for every -jobs value.
func runExplore(args []string) error {
	fs := flag.NewFlagSet("doall explore", flag.ExitOnError)
	var (
		protoName = fs.String("protocol", "a", protocolUsage(planeProtocols))
		n         = fs.Int("n", 8, "number of work units (n)")
		t         = fs.Int("t", 3, "number of processes (t)")
		crashes   = fs.Int("crashes", 2, "max crashes per schedule (at most t-1)")
		depth     = fs.Int("depth", 0, "action-index horizon (0 = probe the failure-free run)")
		maxPrefix = fs.Int("max-prefix", -1, "delivery-prefix cap per crash (-1 = t)")
		mode      = fs.String("mode", "exhaustive", "exhaustive|search")
		budget    = fs.Int("budget", 2048, "schedule budget (search mode)")
		seed      = fs.Int64("seed", 1, "random-phase seed (search mode)")
		objName   = fs.String("objective", "effort", "search objective: effort|work|messages|rounds")
		jobs      = fs.Int("jobs", 0, "parallel shards (0 = GOMAXPROCS, 1 = sequential)")
		maxSched  = fs.Int64("max-schedules", 0, "refuse walks longer than this (0 = 4194304; canonical count for symmetric protocols)")
		replay    = fs.String("replay", "", "replay one decision vector (e.g. '0@a7:keep:p0,1@a3:keep:p0') and exit")
		plane     = fs.String("plane", "", "search mode: also replay the worst schedule on another plane (sim|live)")

		// Scale controls (exhaustive mode): symmetry, pruning, checkpointed
		// resume and cross-process sharding.
		full       = fs.Bool("full", false, "walk every raw schedule even for symmetric protocols (no symmetry reduction)")
		noPrune    = fs.Bool("no-prune", false, "disable prefix-equivalence replay sharing (every schedule replays from round 0)")
		force      = fs.Bool("force", false, "override the hard raw-schedule ceiling (weighted counters saturate)")
		checkpoint = fs.String("checkpoint", "", "persist walk progress to this file after every chunk")
		resume     = fs.Bool("resume", false, "resume the walk from -checkpoint instead of starting fresh")
		ckEvery    = fs.Int64("checkpoint-every", 0, "walk indices between checkpoint writes (0 = 16384)")
		stopAfter  = fs.Int64("stop-after", 0, "pause at the first chunk boundary past this many indices (requires -checkpoint)")
		shard      = fs.String("shard", "", "walk only slice i of N, as 'i/N' (merge finished shard checkpoints with -merge)")
		merge      = fs.String("merge", "", "comma-separated shard checkpoint files: merge them, print the combined report and exit")

		// Extended fault alphabet (exhaustive mode): each flag adds a block
		// of per-victim choices to the enumerated space.
		omissions = fs.Bool("omissions", false, "also enumerate send-omission choices per action × prefix")
		rounds    = fs.Int("rounds", -1, "also enumerate round crashes at rounds 0..N (-1 = none; required by -restart-delays/-slow-factors)")
		delays    = fs.String("restart-delays", "", "comma-separated restart delays d: each round crash also revived at crash+d")
		slows     = fs.String("slow-factors", "", "comma-separated slowdown factors (>= 2) per round trigger")
		drops     = fs.String("drops", "", "comma-separated delivery indices: drop the k-th message bound for the victim")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "Usage: doall explore [flags]")
		fmt.Fprintln(os.Stderr, "Certifies the paper's bounds over the instance's crash-schedule space.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *merge != "" {
		paths := strings.Split(*merge, ",")
		for i := range paths {
			paths[i] = strings.TrimSpace(paths[i])
		}
		rep, err := explore.MergeCheckpoints(paths)
		if err != nil {
			return err
		}
		fmt.Print(rep.Text())
		if rep.ViolationCount > 0 {
			return fmt.Errorf("%d bound violations", rep.ViolationCount)
		}
		return nil
	}

	target, err := explore.NewTarget(strings.ToLower(*protoName), *n, *t, *crashes)
	if err != nil {
		return err
	}

	if *replay != "" {
		vec, err := adversary.ParseVector(*replay)
		if err != nil {
			return err
		}
		cert := target.Certify(vec)
		res := cert.Result
		fmt.Printf("replay:    %s\n", vec)
		fmt.Printf("work:      %d performed (%d distinct of %d)\n", res.WorkTotal, res.WorkDistinct, *n)
		fmt.Printf("messages:  %d\n", res.Messages)
		fmt.Printf("effort:    %d\n", res.Effort())
		fmt.Printf("rounds:    %d\n", res.Rounds)
		fmt.Printf("processes: %d survived, %d crashed\n", res.Survivors, res.Crashes)
		fmt.Printf("collapsed: %v\n", cert.Collapsed)
		for _, v := range cert.Violations {
			fmt.Printf("VIOLATION: %s\n", v.Reason)
		}
		if len(cert.Violations) > 0 {
			return fmt.Errorf("%d violations", len(cert.Violations))
		}
		return nil
	}

	prefix := *maxPrefix
	if prefix < 0 {
		prefix = *t
	}

	start := time.Now()
	switch *mode {
	case "exhaustive":
		horizon := *depth
		if horizon <= 0 {
			probed, err := target.DefaultDepth()
			if err != nil {
				return err
			}
			horizon = probed
		}
		space := explore.NewSpace(*t, *crashes, horizon, prefix)
		space.Omissions = *omissions
		for r := int64(0); r <= int64(*rounds); r++ {
			space.Rounds = append(space.Rounds, r)
		}
		if space.RestartDelays, err = parseCSVInt64(*delays); err != nil {
			return fmt.Errorf("-restart-delays: %w", err)
		}
		if space.SlowFactors, err = parseCSVInt(*slows); err != nil {
			return fmt.Errorf("-slow-factors: %w", err)
		}
		if space.Drops, err = parseCSVInt(*drops); err != nil {
			return fmt.Errorf("-drops: %w", err)
		}
		opt := explore.Options{
			Jobs: *jobs, MaxSchedules: *maxSched,
			Full: *full, NoPrune: *noPrune, Force: *force,
			Checkpoint: *checkpoint, Resume: *resume,
			CheckpointEvery: *ckEvery, StopAfter: *stopAfter,
		}
		if *shard != "" {
			var i, cnt int
			if _, err := fmt.Sscanf(*shard, "%d/%d", &i, &cnt); err != nil || cnt <= 0 || i < 0 || i >= cnt {
				return fmt.Errorf("-shard %q: want 'i/N' with 0 <= i < N", *shard)
			}
			opt.Shard = explore.Shard{Index: i, Count: cnt}
		}
		rep, err := target.Enumerate(space, opt)
		if err != nil {
			return err
		}
		fmt.Print(rep.Text())
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "%d schedules in %v (%.0f schedules/sec)\n",
			rep.Schedules, elapsed.Round(time.Millisecond),
			float64(rep.Schedules)/elapsed.Seconds())
		if rep.ViolationCount > 0 {
			return fmt.Errorf("%d bound violations", rep.ViolationCount)
		}
	case "search":
		obj, err := explore.ParseObjective(*objName)
		if err != nil {
			return err
		}
		if *plane != "" && *plane != "sim" && *plane != "live" {
			return fmt.Errorf("explore: unknown plane %q (want sim|live)", *plane)
		}
		sr, err := target.Search(explore.SearchOptions{
			Objective: obj, Budget: *budget, Seed: *seed,
			Depth: *depth, MaxPrefix: prefix, Jobs: *jobs,
		})
		if err != nil {
			return err
		}
		verdict := ""
		if *plane == "live" {
			if verdict, err = replayLive(target, &sr); err != nil {
				return err
			}
		}
		fmt.Print(sr.Text(), verdict)
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "%d schedules in %v (%.0f schedules/sec)\n",
			sr.Evaluated, elapsed.Round(time.Millisecond),
			float64(sr.Evaluated)/elapsed.Seconds())
		if sr.ViolationCount > 0 {
			return fmt.Errorf("%d bound violations", sr.ViolationCount)
		}
	default:
		return fmt.Errorf("unknown mode %q (want exhaustive|search)", *mode)
	}
	return nil
}

// replayLive replays the search's worst schedule on the live plane and
// returns the verdict line. The searcher surfaces exactly the schedules
// worth distrusting, so the replay must reproduce the engine's Result; a
// divergence is recorded in sr as a violation.
func replayLive(target explore.Target, sr *explore.SearchResult) (string, error) {
	want := target.Certify(sr.BestVector).Result
	steppers, err := core.SteppersFor(target.NewProcs())
	if err != nil {
		return "", fmt.Errorf("explore: live validation: %w", err)
	}
	cfg := live.Config{
		NumProcs:  target.T,
		NumUnits:  target.N,
		Adversary: sr.BestVector.Adversary(),
		MaxRound:  target.MaxRound,
		Bandwidth: target.Bandwidth,
	}
	if target.SingleActive {
		cfg.MaxActive = 1
	}
	got, err := live.Run(cfg, steppers)
	if err == nil && reflect.DeepEqual(want, got) {
		return "live plane:     MATCHES the simulator on the worst schedule\n", nil
	}
	reason := fmt.Sprintf("live plane diverges from simulator: sim %+v, live %+v", want, got)
	if err != nil {
		reason = fmt.Sprintf("live plane error: %v", err)
	}
	sr.Violations = append(sr.Violations, explore.Violation{Vector: sr.Best.Vector, Reason: reason})
	sr.ViolationCount++
	return "live plane:     DIVERGES from the simulator on the worst schedule\n", nil
}

// parseCSVInt parses a comma-separated integer list; empty means nil.
func parseCSVInt(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseCSVInt64 is parseCSVInt for int64 lists.
func parseCSVInt64(s string) ([]int64, error) {
	ints, err := parseCSVInt(s)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, v := range ints {
		out = append(out, int64(v))
	}
	return out, nil
}
