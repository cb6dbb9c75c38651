// Asyncpool: the paper's §2.1 remark made concrete — Protocol A in a fully
// asynchronous system with a failure detector. Workers are real goroutines
// running core's Protocol A Steppers, messages travel with random delays,
// and a worker takes over once the (sound) failure detector reports every
// lower-numbered worker retired, instead of at a synchronous deadline. Jobs
// are shell-out-style tasks simulated by short sleeps; the first -kills
// workers crash a few actions into their turn.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// job runs the simulated task of every unit its Protocol A body performs.
type job struct{ body sim.Stepper }

func (j job) Step(p *sim.Proc) sim.Yield {
	y := j.body.Step(p)
	if y.Kind == sim.YieldAction && y.Action.WorkUnit > 0 {
		time.Sleep(50 * time.Microsecond) // the actual job
	}
	return y
}

func run(args []string) error {
	fs := flag.NewFlagSet("asyncpool", flag.ContinueOnError)
	var (
		jobs     = fs.Int("jobs", 64, "number of idempotent jobs")
		workers  = fs.Int("workers", 16, "worker goroutines")
		kills    = fs.Int("kills", 6, "workers killed mid-run")
		maxDelay = fs.Duration("max-delay", 300*time.Microsecond, "max message delay")
		seed     = fs.Int64("seed", 42, "delay seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kills < 0 || *kills >= *workers {
		return fmt.Errorf("-kills %d leaves no survivor among %d workers", *kills, *workers)
	}
	body, err := core.SteppersFor(core.ProtocolAProcs(core.ABConfig{N: *jobs, T: *workers}))
	if err != nil {
		return err
	}
	// Each killed worker dies at the third action of its turn, keeping
	// that action's job.
	plan := make([]adversary.Crash, *kills)
	for pid := range plan {
		plan[pid] = adversary.Crash{PID: pid, AtAction: 3, KeepWork: true}
	}

	start := time.Now()
	res, err := live.RunAsync(*jobs, *workers, *maxDelay, *seed, plan,
		func(id int) sim.Stepper { return job{body(id)} })
	if err != nil {
		return err
	}
	fmt.Printf("jobs: %d distinct of %d done (%d executions incl. repeats)\n",
		res.WorkDistinct, *jobs, res.WorkTotal)
	fmt.Printf("workers killed: %d, messages on the wire: %d, wall time: %v\n",
		res.Crashes, res.Messages, time.Since(start).Round(time.Millisecond))
	if !res.Complete() {
		return fmt.Errorf("job pool incomplete")
	}
	fmt.Println("all jobs done despite failures — the async Protocol A guarantee.")
	return nil
}
