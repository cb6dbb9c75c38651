// Package agreement implements the paper's §5 application: Byzantine
// agreement for crash failures built on the work protocols. The general
// (process 0) broadcasts its value to the f+1 senders; the senders then
// perform the "work" of informing all n processes, where performing unit u
// means sending the general's value to process u−1. Every process decides
// its current value at a predetermined round by which the work protocol has
// provably terminated.
//
// Using Protocol B this yields O(n + t√t) messages and O(n) rounds — the
// bound of Bracha's nonconstructive protocol, made constructive. Using
// Protocol C it yields O(n + t log t) messages at exponential time.
package agreement

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// WorkProtocol selects which work protocol the senders run.
type WorkProtocol int

const (
	// UseA runs Protocol A.
	UseA WorkProtocol = iota + 1
	// UseB runs Protocol B.
	UseB
	// UseC runs Protocol C with value piggybacking on ordinary messages.
	UseC
)

// String implements fmt.Stringer.
func (w WorkProtocol) String() string {
	switch w {
	case UseA:
		return "A"
	case UseB:
		return "B"
	case UseC:
		return "C"
	default:
		return fmt.Sprintf("WorkProtocol(%d)", int(w))
	}
}

// ValueMsg informs a process of the general's value: both the general's
// initial broadcast to the senders and the per-unit informs.
type ValueMsg struct {
	V int
}

// Kind implements sim.Kinder.
func (ValueMsg) Kind() string { return "value" }

// Config parameterises an agreement instance.
type Config struct {
	// N is the number of processes; unit u informs process u-1.
	N int
	// F bounds the number of crash failures; processes 0..F are the
	// senders (F+1 of them, so at least one survives).
	F int
	// Value is the general's input value. Processes start with value 0, so
	// a general that crashes before informing anyone yields decision 0.
	Value int
	// Protocol selects the work protocol (default UseB).
	Protocol WorkProtocol
}

// Outcome reports the decisions of an agreement run.
type Outcome struct {
	// Decisions[i] is process i's decided value; -1 if it crashed before
	// deciding.
	Decisions []int
	// Result carries the run's cost metrics.
	Result sim.Result
}

// Agreement verifies the agreement property: every decided value is the
// same. It returns the common value.
func (o Outcome) Agreement() (int, error) {
	v, seen := 0, false
	for pid, d := range o.Decisions {
		if d < 0 {
			continue
		}
		if seen && d != v {
			return 0, fmt.Errorf("agreement violated: process %d decided %d, others %d", pid, d, v)
		}
		v, seen = d, true
	}
	return v, nil
}

// instance is the state one agreement run shares among its processes.
type instance struct {
	value             int
	tEnd              int64 // the non-senders' decision round
	rcpts             []int // the general's stage-1 recipients, senders 1..F
	values, decisions []int
}

// Run executes one agreement instance under the given failure adversary.
func Run(cfg Config, opt core.RunOptions) (Outcome, error) {
	if cfg.N <= 0 {
		return Outcome{}, fmt.Errorf("agreement: n = %d", cfg.N)
	}
	if cfg.F < 0 || cfg.F >= cfg.N {
		return Outcome{}, fmt.Errorf("agreement: f = %d out of range [0,%d)", cfg.F, cfg.N)
	}
	proto := cfg.Protocol
	if proto == 0 {
		proto = UseB
	}
	senders := cfg.F + 1
	in := &instance{value: cfg.Value, values: make([]int, cfg.N), decisions: make([]int, cfg.N)}
	for i := range in.decisions {
		in.decisions[i] = -1
	}
	for s := 1; s < senders; s++ {
		in.rcpts = append(in.rcpts, s)
	}
	// Stage 1 occupies round 0; the work protocol starts at round 1.
	ab := core.ABConfig{N: cfg.N, T: senders, StartRound: 1}
	var work func(id int) sim.Stepper
	var err error
	switch proto {
	case UseA:
		in.tEnd = 1 + core.ProtocolARoundBound(cfg.N, senders)
		work, err = core.SteppersFor(core.ProtocolAProcs(ab))
	case UseB:
		in.tEnd = 1 + core.ProtocolBRoundBound(cfg.N, senders)
		work, err = core.SteppersFor(core.ProtocolBProcs(ab))
	case UseC:
		in.tEnd = satAdd64(1, core.ProtocolCRoundBound(cfg.N, senders, 1))
		work, err = core.SteppersFor(core.ProtocolCProcs(core.CConfig{
			N: cfg.N, T: senders, StartRound: 1,
			// §5: Protocol C's checkpointing messages carry the value.
			PiggybackSend: func(pid int) any { return in.values[pid] },
		}))
	default:
		return Outcome{}, fmt.Errorf("agreement: unknown protocol %v", proto)
	}
	if err != nil {
		return Outcome{}, err
	}
	res, err := core.RunSteppers(cfg.N, cfg.N, func(id int) sim.Stepper {
		pr := &proc{in: in, id: id}
		if id < senders {
			pr.work = work(id)
		}
		return pr
	}, opt)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Decisions: in.decisions, Result: res}, nil
}

// proc is one process of the reduction. The general (process 0) first
// broadcasts its value to the other senders; a sender then runs its work
// machine, where performing unit u also sends the sender's current value to
// process u−1 in the same round, and decides when the machine halts; every
// other process waits for the decision round, adopting values as informs
// arrive (via the tap).
type proc struct {
	in      *instance
	id      int
	started bool
	work    sim.Stepper // nil for non-senders
	inform  [1]sim.Send // backs the inform attached to a unit of work
}

// adopt is the process's tap: it takes the value of every inform and of
// every Protocol C ordinary message it drains.
func (pr *proc) adopt(m sim.Message) {
	switch pl := m.Payload.(type) {
	case ValueMsg:
		pr.in.values[pr.id] = pl.V
	case core.COrdinary:
		if v, ok := pl.Value.(int); ok {
			pr.in.values[pr.id] = v
		}
	}
}

// Step implements sim.Stepper.
func (pr *proc) Step(p *sim.Proc) sim.Yield {
	in := pr.in
	if !pr.started {
		pr.started = true
		p.SetTap(pr.adopt)
		if pr.id == 0 {
			// Stage 1: one broadcast record on the engine's message plane.
			in.values[0] = in.value
			return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{
				Broadcast: p.BroadcastTo(in.rcpts, ValueMsg{V: in.value}),
			}}
		}
	}
	if pr.work != nil {
		y := pr.work.Step(p)
		if y.Kind == sim.YieldHalt {
			in.decisions[pr.id] = in.values[pr.id]
		} else if u := y.Action.WorkUnit; u > 0 {
			pr.inform[0] = sim.Send{To: u - 1, Payload: ValueMsg{V: in.values[pr.id]}}
			y.Action.Sends = pr.inform[:]
		}
		return y
	}
	p.Drain()
	if p.Now() < in.tEnd {
		return sim.Yield{Kind: sim.YieldSleep, Until: in.tEnd}
	}
	in.decisions[pr.id] = in.values[pr.id]
	return sim.Yield{Kind: sim.YieldHalt}
}

func satAdd64(a, b int64) int64 {
	if a > sim.Forever-b {
		return sim.Forever
	}
	return a + b
}
