package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/batch"
)

// runSweep implements `doall sweep`: cross protocols × failure patterns ×
// (n, t) grid × seeds and execute the whole set in parallel through the
// batch runner. Output order is the deterministic sweep order regardless of
// -jobs.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("doall sweep", flag.ExitOnError)
	var (
		protoCSV   = fs.String("protocols", "a,b,d", "comma-separated protocols to cross (see doall -h for names)")
		failureCSV = fs.String("failures", "none,cascade,random", "comma-separated failure patterns: none|cascade|random")
		unitsCSV   = fs.String("units", "64,256", "comma-separated unit counts (n)")
		workersCSV = fs.String("workers", "8,16", "comma-separated process counts (t)")
		seedsCSV   = fs.String("seeds", "1", "comma-separated seeds (random failures)")
		crashP     = fs.Float64("crash-p", 0.02, "per-action crash probability (random pattern)")
		jobs       = fs.Int("jobs", 0, "parallel runs (0 = GOMAXPROCS, 1 = sequential)")
		maxRound   = fs.Int64("max-round", 0, "abort runs exceeding this round (0 = engine default)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "Usage: doall sweep [flags]")
		fmt.Fprintln(os.Stderr, "Runs every protocol × failure pattern × (n, t) × seed combination in parallel.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	sweep := batch.Sweep{
		CheckInvariants: true,
		MaxRound:        *maxRound,
	}
	protoNames := splitCSV(*protoCSV)
	if len(protoNames) == 0 {
		return fmt.Errorf("-protocols: empty list")
	}
	for _, name := range protoNames {
		proto, err := runProtocol(name)
		if err != nil {
			return err
		}
		sweep.Protocols = append(sweep.Protocols, proto)
	}
	failureNames := splitCSV(*failureCSV)
	if len(failureNames) == 0 {
		return fmt.Errorf("-failures: empty list")
	}
	for _, name := range failureNames {
		switch strings.ToLower(name) {
		case "none":
			sweep.Failures = append(sweep.Failures, batch.NoFailureSpec())
		case "cascade":
			sweep.Failures = append(sweep.Failures, batch.CascadeFailureSpec())
		case "random":
			sweep.Failures = append(sweep.Failures, batch.RandomFailureSpec(*crashP))
		default:
			return fmt.Errorf("unknown failure pattern %q (want none|cascade|random)", name)
		}
	}
	units, err := parseInts(*unitsCSV)
	if err != nil {
		return fmt.Errorf("-units: %w", err)
	}
	workers, err := parseInts(*workersCSV)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	for _, n := range units {
		for _, t := range workers {
			sweep.Grid = append(sweep.Grid, batch.GridPoint{Units: n, Workers: t})
		}
	}
	seeds, err := parseInts(*seedsCSV)
	if err != nil {
		return fmt.Errorf("-seeds: %w", err)
	}
	for _, s := range seeds {
		sweep.Seeds = append(sweep.Seeds, int64(s))
	}

	sweepJobs := sweep.Jobs()
	start := time.Now()
	results := batch.Run(sweepJobs, batch.Options{Workers: *jobs})
	elapsed := time.Since(start)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "run\twork\tdistinct\tmessages\teffort\trounds\tcrashes\tcomplete")
	bad := 0
	for _, r := range results {
		if r.Err != nil {
			bad++
			fmt.Fprintf(w, "%s\tERROR: %v\n", r.Name, r.Err)
			continue
		}
		if r.GuaranteeViolated() {
			bad++
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			r.Name, r.Result.Work, r.Result.WorkDistinct, r.Result.Messages,
			r.Result.Effort(), r.Result.Rounds, r.Result.Crashes, r.Result.Complete)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	workerCount := *jobs
	if workerCount <= 0 {
		workerCount = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "%d runs in %v (%d jobs in parallel)\n",
		len(results), elapsed.Round(time.Millisecond), workerCount)
	if bad > 0 {
		return fmt.Errorf("%d runs failed or violated the completion guarantee", bad)
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
