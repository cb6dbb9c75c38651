// Dynamicqueue: the paper's §4 closing remark (and the variant IBM
// patented) — work arrives continually at individual sites, is not common
// knowledge, and the system runs agreement periodically to redistribute it.
// Jobs arrive at random sites over several periods; sites crash along the
// way; everything any surviving site learned gets done.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dynamic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		sites   = flag.Int("sites", 8, "number of sites")
		jobs    = flag.Int("jobs", 96, "jobs arriving over the run")
		periods = flag.Int("periods", 6, "agreement periods")
	)
	flag.Parse()

	// Jobs arrive round-robin during the first periods-1 phases (nothing
	// may arrive after the final agreement). Arrivals avoid the two sites
	// that will be reclaimed: a job arriving at a site that dies before the
	// next agreement is irrecoverably lost — the documented boundary of the
	// guarantee — and this demo shows the positive case.
	arrivalSites := *sites - 2
	injections := make([]dynamic.Injection, *jobs)
	for u := 1; u <= *jobs; u++ {
		injections[u-1] = dynamic.Injection{
			Phase:   1 + (u-1)%(*periods-1),
			Process: (u * 7) % arrivalSites,
			Unit:    u,
		}
	}
	steppers, err := dynamic.Steppers(dynamic.Config{
		T: *sites, Units: *jobs, Phases: *periods, Injections: injections,
	})
	if err != nil {
		return err
	}

	// Two sites die mid-run, after their first arrivals have been shared
	// (each period is a couple of agreement rounds plus ⌈|S|/|T|⌉ work
	// rounds, so these land around periods 3 and 4).
	adv := adversary.NewSchedule(
		adversary.Crash{PID: *sites - 1, Round: 12},
		adversary.Crash{PID: *sites - 2, Round: 20},
	)
	res, err := core.RunSteppers(*jobs, *sites, steppers, core.RunOptions{
		Adversary: adv, DetailedMetrics: true,
	})
	if err != nil {
		return err
	}

	fmt.Printf("sites: %d (%d crashed mid-run), periods: %d\n", *sites, res.Crashes, *periods)
	fmt.Printf("jobs arrived: %d — done: %d distinct (%d executions)\n",
		*jobs, res.WorkDistinct, res.WorkTotal)
	fmt.Printf("agreement traffic: %d messages over %d rounds\n", res.Messages, res.Rounds)
	if !res.Complete() {
		return fmt.Errorf("jobs lost despite survivors")
	}
	fmt.Println("queue drained: every job any surviving site knew about was executed.")
	return nil
}
