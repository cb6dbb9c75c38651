// Package workload provides the idempotent work abstractions used by the
// examples: the paper's motivating reactor-valve check and boolean-formula
// evaluation (verifying a step in a proof). Both are safe to repeat — the
// defining property of the paper's work units — and safe for concurrent use.
package workload

import (
	"fmt"
	"sync"
)

// Workload is a set of n idempotent units, executed by unit number (1..n).
type Workload interface {
	// Size returns the number of units.
	Size() int
	// Do performs unit u (1-based). Implementations must be idempotent.
	Do(u int)
	// Done reports whether unit u has been performed at least once.
	Done(u int) bool
}

// Valves models the paper's introduction: before fuel is added, every valve
// must be verified closed; verifying (and closing) a valve is idempotent.
type Valves struct {
	mu     sync.Mutex
	closed []bool
	checks []int
}

var _ Workload = (*Valves)(nil)

// NewValves builds a bank of n open valves.
func NewValves(n int) *Valves {
	return &Valves{closed: make([]bool, n+1), checks: make([]int, n+1)}
}

// Size implements Workload.
func (v *Valves) Size() int { return len(v.closed) - 1 }

// Do verifies valve u is closed, closing it if necessary.
func (v *Valves) Do(u int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if u < 1 || u >= len(v.closed) {
		return
	}
	v.checks[u]++
	v.closed[u] = true
}

// Done implements Workload.
func (v *Valves) Done(u int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return u >= 1 && u < len(v.closed) && v.closed[u]
}

// AllClosed reports whether every valve has been verified.
func (v *Valves) AllClosed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for u := 1; u < len(v.closed); u++ {
		if !v.closed[u] {
			return false
		}
	}
	return true
}

// Checks returns how many times valve u was checked (the multiplicity).
func (v *Valves) Checks(u int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if u < 1 || u >= len(v.checks) {
		return 0
	}
	return v.checks[u]
}

// Formula evaluates a boolean formula in 3-CNF over k variables at all 2^k
// assignments: unit u evaluates assignment u-1. It reproduces the paper's
// "evaluating a boolean formula at a particular assignment" example; the
// workload doubles as a brute-force satisfiability check.
type Formula struct {
	vars    int
	clauses [][3]int // literals: +v = var v, -v = ¬var v (1-based)

	mu      sync.Mutex
	results map[int]bool
}

var _ Workload = (*Formula)(nil)

// NewFormula builds the workload for the given 3-CNF clauses over vars
// variables.
func NewFormula(vars int, clauses [][3]int) (*Formula, error) {
	if vars < 1 || vars > 20 {
		return nil, fmt.Errorf("workload: vars = %d out of range [1,20]", vars)
	}
	for _, c := range clauses {
		for _, l := range c {
			if l == 0 || l > vars || -l > vars {
				return nil, fmt.Errorf("workload: literal %d out of range", l)
			}
		}
	}
	return &Formula{vars: vars, clauses: clauses, results: make(map[int]bool)}, nil
}

// Size implements Workload: one unit per assignment.
func (f *Formula) Size() int { return 1 << f.vars }

// Do evaluates assignment u-1.
func (f *Formula) Do(u int) {
	assign := u - 1
	sat := true
	for _, c := range f.clauses {
		clauseSat := false
		for _, l := range c {
			v := l
			if v < 0 {
				v = -v
			}
			bit := assign>>(v-1)&1 == 1
			if (l > 0) == bit {
				clauseSat = true
				break
			}
		}
		if !clauseSat {
			sat = false
			break
		}
	}
	f.mu.Lock()
	f.results[u] = sat
	f.mu.Unlock()
}

// Done implements Workload.
func (f *Formula) Done(u int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.results[u]
	return ok
}

// Satisfiable reports whether any evaluated assignment satisfied the
// formula, and whether all assignments have been evaluated.
func (f *Formula) Satisfiable() (sat, complete bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.results {
		if s {
			sat = true
		}
	}
	return sat, len(f.results) == 1<<f.vars
}
