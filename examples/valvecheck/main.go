// Valvecheck: the paper's motivating scenario. Before fuel is added to the
// reactor, every valve must be verified closed — and the verification
// procedure must tolerate the checking controllers crashing, as long as one
// survives. Checking a valve is idempotent, so it fits the Do-All framework
// exactly.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("valvecheck", flag.ContinueOnError)
	var (
		valves      = fs.Int("valves", 96, "number of valves to verify")
		controllers = fs.Int("controllers", 16, "number of crash-prone controllers")
		crashP      = fs.Float64("crash-p", 0.02, "per-action crash probability")
		seed        = fs.Int64("seed", 1, "failure seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	bank, res, err := check(*valves, *controllers, *crashP, *seed)
	if err != nil {
		return err
	}

	fmt.Printf("valves: %d, controllers: %d, crashes injected: %d, survivors: %d\n",
		*valves, *controllers, res.Crashes, res.Survivors)
	fmt.Printf("all valves verified closed: %v\n", bank.AllClosed())
	fmt.Printf("checks performed (with repeats): %d — overhead %.1f%%\n",
		res.Work, 100*float64(res.Work-int64(*valves))/float64(*valves))
	fmt.Printf("checkpoint messages: %d, rounds: %d\n", res.Messages, res.Rounds)

	redundant := 0
	for u := 1; u <= *valves; u++ {
		if bank.Checks(u) > 1 {
			redundant++
		}
	}
	fmt.Printf("valves checked more than once (lost to crashes): %d\n", redundant)
	if !bank.AllClosed() && res.Survivors > 0 {
		return fmt.Errorf("BUG: survivors exist but valves remain unverified")
	}
	fmt.Println("safe to add fuel.")
	return nil
}

// check verifies a bank of valves with Protocol B under random crashes; the
// Observer closes each valve the run counts as checked.
func check(valves, controllers int, crashP float64, seed int64) (*workload.Valves, doall.Result, error) {
	bank := workload.NewValves(valves)
	res, err := doall.Run(doall.Config{
		Units:    valves,
		Workers:  controllers,
		Protocol: doall.ProtocolB, // work-optimal and time-optimal-ish
		Failures: doall.RandomFailures(crashP, controllers-1, seed),
		Observer: func(_, unit int) { bank.Do(unit) },
	})
	return bank, res, err
}
