// Package sharedmem reproduces the paper's §1.1 comparison point: in the
// shared-memory model there is a straightforward algorithm — sequential
// work with a progress register as the checkpoint — achieving optimal
// O(n + t) effort (counting reads, writes and work) in O(nt) time, in
// contrast to the message-passing model where checkpointing costs the
// t√t/t·log t message terms of Protocols A–C.
//
// The substrate runs on the synchronous simulator: one shared-memory
// operation (read or write of one register) occupies one round, exactly like
// one unit of work or one broadcast in the message model.
package sharedmem

import (
	"fmt"

	"repro/internal/sim"
)

// Memory is a bank of shared registers accessible by all processes. The
// lock-step engine serialises access, so plain fields suffice.
type Memory struct {
	cells  []int
	reads  int64
	writes int64
}

// Ops returns (reads, writes) performed so far.
func (m *Memory) Ops() (int64, int64) { return m.reads, m.writes }

// Config parameterises a Write-All run.
type Config struct {
	// N is the number of work units, T the number of processes.
	N, T int
}

// progressAddr is the single checkpoint register: the highest unit known
// complete.
const progressAddr = 0

// Steppers builds the Write-All processes over a fresh memory; it returns
// the memory so callers can inspect operation counts.
//
// The algorithm: process 0 performs units in order, writing the progress
// register after each unit (work round + write round). Process j wakes at
// deadline j·(2n+4) — by which time all lower processes have retired — reads
// the progress register, and either halts (all done) or takes over from the
// recorded unit. Effort: n work + n writes + ≤ t reads + ≤ t redone units.
func Steppers(cfg Config) (*Memory, func(id int) sim.Stepper, error) {
	if cfg.T <= 0 || cfg.N < 0 {
		return nil, nil, fmt.Errorf("sharedmem: invalid config n=%d t=%d", cfg.N, cfg.T)
	}
	mem := &Memory{cells: make([]int, 1)}
	life := int64(2*cfg.N + 4)
	return mem, func(j int) sim.Stepper {
		if j == 0 {
			return &writer{mem: mem, n: cfg.N, st: stTakeover, u: 1}
		}
		return &writer{mem: mem, n: cfg.N, st: stWait, deadline: int64(j) * life}
	}, nil
}

// writer is one Write-All process. A register access occupies one round as
// an idle action; its load or store takes effect at the start of the
// process's next Step, so a crash during that round discards it.
type writer struct {
	mem      *Memory
	n        int
	st       int
	deadline int64
	u        int // next unit to perform
}

const (
	stWait     = iota // sleep until the deadline
	stRead            // read the progress register
	stLoad            // the read's round is over: load the register
	stTakeover        // become the worker from unit u
	stWork            // perform unit u
	stWrite           // write unit u-1 to the progress register
	stStore           // the write's round is over: store it
)

// Step implements sim.Stepper.
func (w *writer) Step(p *sim.Proc) sim.Yield {
	for {
		switch w.st {
		case stWait:
			w.st = stRead
			if !p.HasMail() && p.Now() < w.deadline {
				return sim.Yield{Kind: sim.YieldSleep, Until: w.deadline}
			}
		case stRead:
			w.st = stLoad
			return sim.Yield{Kind: sim.YieldAction}
		case stWrite:
			w.st = stStore
			return sim.Yield{Kind: sim.YieldAction}
		case stLoad:
			w.mem.reads++
			done := w.mem.cells[progressAddr]
			if done >= w.n {
				return sim.Yield{Kind: sim.YieldHalt}
			}
			w.st, w.u = stTakeover, done+1
		case stTakeover:
			p.SetActive(true)
			w.st = stWork
		case stWork:
			if w.u > w.n {
				p.SetActive(false)
				return sim.Yield{Kind: sim.YieldHalt}
			}
			w.st, w.u = stWrite, w.u+1
			return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{WorkUnit: w.u - 1}}
		case stStore:
			w.mem.writes++
			w.mem.cells[progressAddr] = w.u - 1
			w.st = stWork
		}
	}
}

// Result extends the simulator metrics with shared-memory effort.
type Result struct {
	Sim    sim.Result
	Reads  int64
	Writes int64
}

// Effort counts work plus reads plus writes, the §1.1 measure.
func (r Result) Effort() int64 { return r.Sim.WorkTotal + r.Reads + r.Writes }

// Run executes a Write-All instance under the given adversary.
func Run(cfg Config, adv sim.Adversary) (Result, error) {
	mem, steppers, err := Steppers(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.NewStepper(sim.Config{
		NumProcs:  cfg.T,
		NumUnits:  cfg.N,
		Adversary: adv,
		MaxActive: 1,
	}, steppers).Run()
	if err != nil {
		return Result{}, err
	}
	reads, writes := mem.Ops()
	return Result{Sim: res, Reads: reads, Writes: writes}, nil
}
