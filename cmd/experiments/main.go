// Command experiments reruns every reproduction experiment (T1–T9, F1–F7,
// X1–X6) and writes EXPERIMENTS.md with measured-vs-bound tables.
//
// Experiments fan out across -jobs workers via the internal/batch runner;
// the output file is byte-identical for every worker count (timings go to
// stderr, and the wall-clock async experiment is excluded unless
// -include-async is set).
//
// Usage:
//
//	experiments [-o EXPERIMENTS.md] [-only T1,F2,...] [-jobs N] [-include-async]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out          = flag.String("o", "EXPERIMENTS.md", "output file (- for stdout)")
		only         = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
		jobs         = flag.Int("jobs", 0, "parallel experiment runs (0 = GOMAXPROCS, 1 = sequential)")
		includeAsync = flag.Bool("include-async", false,
			"include the real-goroutine async experiment (F6), which runs on wall-clock message delays")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	// An explicit -only selection may name nondeterministic experiments;
	// only the default everything-run restricts itself to the
	// byte-reproducible set.
	var exps []experiments.Experiment
	if *includeAsync || len(want) > 0 {
		exps = experiments.Select(experiments.All(), want)
	} else {
		exps = experiments.Deterministic()
	}
	if len(exps) == 0 {
		return fmt.Errorf("no experiments match %q", *only)
	}

	start := time.Now()
	tables := experiments.Run(exps, *jobs)
	elapsed := time.Since(start)
	for _, table := range tables {
		fmt.Fprintf(os.Stderr, "%s: %d rows, %d bound failures\n",
			table.ID, len(table.Rows), table.Failures())
		if table.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: ERROR: %v\n", table.ID, table.Err)
		}
	}
	failures := experiments.TotalFailures(tables)
	fmt.Fprintf(os.Stderr, "%d experiments in %v, %d bound failures\n",
		len(tables), elapsed.Round(time.Millisecond), failures)

	content := experiments.Report(tables)
	if *out == "-" {
		fmt.Print(content)
	} else if err := os.WriteFile(*out, []byte(content), 0o644); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d bound failures", failures)
	}
	return nil
}
