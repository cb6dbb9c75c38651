package core

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// RunOptions configures a standalone protocol run.
type RunOptions struct {
	// Adversary injects crash failures (nil: failure-free).
	Adversary sim.Adversary
	// MaxActive, when > 0, enables the at-most-MaxActive-active invariant
	// check (Protocols A, B, C use 1; Protocol D is inherently parallel).
	MaxActive int
	// MaxRound aborts runaway executions (0 = engine default).
	MaxRound int64
	// Bandwidth caps per-process outbound transmissions per round
	// (sim.Config.Bandwidth; 0 = unlimited).
	Bandwidth int
	// DetailedMetrics enables per-kind message counting.
	DetailedMetrics bool
	// Tracer receives one event per committed action when non-nil.
	Tracer func(sim.Event)
}

// Procs is a protocol's per-process program set: Steppers(id) builds
// process id's state machine.
type Procs struct {
	Steppers func(id int) sim.Stepper
}

// enginePool recycles engines — and with them the Proc objects, inbox
// buffers, run queue, heap and message buffers a run accumulates — across
// the millions of runs a sweep performs. Engine.Reset makes a pooled engine
// indistinguishable from a fresh one, so every core entry point runs
// pooled; sync.Pool's per-P caches give each batch worker its own engine
// without coordination.
var enginePool = sync.Pool{New: func() any { return new(sim.Engine) }}

// runPooled executes one run on a recycled engine. The engine is returned
// to the pool even when the run errs (the engine stays consistent); it is
// deliberately dropped if anything panics through Run.
func runPooled(cfg sim.Config, steppers func(id int) sim.Stepper) (sim.Result, error) {
	eng := enginePool.Get().(*sim.Engine)
	eng.Reset(cfg, steppers)
	res, err := eng.Run()
	enginePool.Put(eng)
	return res, err
}

// RunSteppers executes steppers for an (n, t) instance and returns the
// metrics.
func RunSteppers(n, t int, steppers func(id int) sim.Stepper, opt RunOptions) (sim.Result, error) {
	return runPooled(engineConfig(n, t, opt), steppers)
}

// RunProcs executes a protocol's Procs on a pooled engine.
func RunProcs(n, t int, pr Procs, opt RunOptions) (sim.Result, error) {
	return RunSteppers(n, t, pr.Steppers, opt)
}

// SteppersFor unwraps a Procs builder's result to its Steppers. External
// execution planes (internal/live) and the layered protocols
// (internal/agreement, internal/bootstrap) take the steppers of every
// protocol builder in this package through it.
func SteppersFor(pr Procs, err error) (func(id int) sim.Stepper, error) {
	if err != nil {
		return nil, err
	}
	return pr.Steppers, nil
}

func engineConfig(n, t int, opt RunOptions) sim.Config {
	return sim.Config{
		NumProcs:        t,
		NumUnits:        n,
		Adversary:       opt.Adversary,
		MaxRound:        opt.MaxRound,
		MaxActive:       opt.MaxActive,
		Bandwidth:       opt.Bandwidth,
		DetailedMetrics: opt.DetailedMetrics,
		Tracer:          opt.Tracer,
	}
}

// CheckCompletion enforces the paper's core guarantee: if at least one
// process survives (terminates voluntarily), all work must have been
// performed.
func CheckCompletion(res sim.Result) error {
	if res.Survivors > 0 && !res.Complete() {
		return fmt.Errorf("core: %d survivors but only %d distinct units done",
			res.Survivors, res.WorkDistinct)
	}
	return nil
}
