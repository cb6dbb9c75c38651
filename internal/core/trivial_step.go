package core

import "repro/internal/sim"

// trivialMachine is the trivial baseline: every process performs every
// unit in order and never communicates. Besides being the paper's §1
// baseline, it is the one strategy in this repository that is anonymous by
// construction — no field, branch or message depends on the
// process identity — which makes it fully exchangeable under PID renaming.
// internal/explore exploits exactly that: the trivial certification target
// is declared Symmetric, so its schedule spaces enumerate canonical orbit
// representatives only (see explore/canon.go and the SymmetryWitness
// cross-check that guards the declaration).
type trivialMachine struct {
	n    int
	next int // next unit to perform, 1-based
}

// Step implements sim.Stepper.
func (m *trivialMachine) Step(*sim.Proc) sim.Yield {
	if m.next > m.n {
		return haltYield()
	}
	u := m.next
	m.next++
	return workYield(u)
}

// Snapshot implements sim.Recoverable: all state is value-typed, so a
// shallow copy is a complete post-commit checkpoint.
func (m *trivialMachine) Snapshot() any { cp := *m; return &cp }

// Restore implements sim.Recoverable.
func (m *trivialMachine) Restore(snap any) { *m = *snap.(*trivialMachine) }

var _ sim.Recoverable = (*trivialMachine)(nil)

// TrivialSteppers builds the no-communication baseline on the stepper
// substrate (crash-recoverable).
func TrivialSteppers(n int) func(id int) sim.Stepper {
	return func(int) sim.Stepper { return &trivialMachine{n: n, next: 1} }
}

// TrivialProcs builds a standalone trivial-baseline run on the stepper
// substrate.
func TrivialProcs(n int) Procs {
	return Procs{Steppers: TrivialSteppers(n)}
}
