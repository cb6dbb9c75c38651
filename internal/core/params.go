// Package core implements the four work-performing protocols of Dwork,
// Halpern and Waarts — Protocol A (checkpointing), Protocol B (checkpointing
// with go-ahead polling), Protocol C (most-knowledgeable takeover with
// recursive fault detection) and Protocol D (parallel work with agreement
// phases) — together with the baseline strategies the paper compares against.
//
// Every protocol, the baselines included, exists once, as a state machine on
// sim's Stepper interface (see stepper.go). The layered protocols wrap those
// machines rather than rewrite them: the Byzantine agreement application of
// §5 (internal/agreement) and the §1 bootstrap (internal/bootstrap) step an
// A, B or C machine and attach a message to each unit it performs.
package core

import (
	"fmt"
)

// Assignment maps a protocol run onto engine resources. Logical worker
// positions 0..T-1 are mapped to engine PIDs and logical units 1..N to
// engine unit IDs, so a protocol can run on a subset of processes over a
// subset of the work (Protocol D's revert does exactly that).
type Assignment struct {
	// Workers lists engine PIDs in logical position order; nil means the
	// identity assignment 0..T-1.
	Workers []int
	// Units lists engine unit IDs so that logical unit i is Units[i-1]; nil
	// means the identity assignment 1..N.
	Units []int
}

// resolve validates the assignment and builds the reverse worker map. The
// identity assignment — the common case of every standalone run — is kept
// as nil slices, so resolving, translating and pids-mapping allocate
// nothing.
type assignment struct {
	n, t    int
	workers []int       // nil = identity (position == PID)
	units   []int       // nil = identity (logical == engine unit ID)
	posOf   map[int]int // engine pid -> logical position; nil for identity
}

func resolveAssignment(n, t int, a Assignment) (assignment, error) {
	if t <= 0 {
		return assignment{}, fmt.Errorf("core: t = %d, need at least one process", t)
	}
	if n < 0 {
		return assignment{}, fmt.Errorf("core: n = %d, need non-negative work", n)
	}
	r := assignment{n: n, t: t, workers: a.Workers, units: a.Units}
	if r.workers != nil {
		if len(r.workers) != t {
			return assignment{}, fmt.Errorf("core: %d workers for t = %d", len(r.workers), t)
		}
		r.posOf = make(map[int]int, t)
		for pos, pid := range r.workers {
			r.posOf[pid] = pos
		}
	}
	if r.units != nil && len(r.units) != n {
		return assignment{}, fmt.Errorf("core: %d units for n = %d", len(r.units), n)
	}
	return r, nil
}

// unitID translates a logical unit (1-based) to its engine unit ID.
func (a assignment) unitID(logical int) int {
	if a.units == nil {
		return logical
	}
	return a.units[logical-1]
}

// pid translates a logical position to its engine PID.
func (a assignment) pid(pos int) int {
	if a.workers == nil {
		return pos
	}
	return a.workers[pos]
}

// pos translates an engine PID to a logical position (ok=false for
// non-participants, whose messages the protocols ignore).
func (a assignment) pos(pid int) (int, bool) {
	if a.workers == nil {
		return pid, pid >= 0 && pid < a.t
	}
	p, ok := a.posOf[pid]
	return p, ok
}

// pids maps a slice of logical positions to engine PIDs. Under the identity
// assignment the input is returned as-is; callers must treat the result as
// read-only.
func (a assignment) pids(positions []int) []int {
	if a.workers == nil {
		return positions
	}
	out := make([]int, len(positions))
	for i, p := range positions {
		out[i] = a.pid(p)
	}
	return out
}

// subchunkWidth returns w = ⌈n/P⌉, the number of units per subchunk.
func subchunkWidth(n, subchunks int) int {
	if subchunks <= 0 {
		return 0
	}
	return (n + subchunks - 1) / subchunks
}

// subchunkRange returns the inclusive logical-unit interval [lo, hi] of
// subchunk c ∈ 1..P; empty subchunks (possible when n < P) return lo > hi.
func subchunkRange(n, subchunks, c int) (lo, hi int) {
	w := subchunkWidth(n, subchunks)
	lo = (c-1)*w + 1
	hi = c * w
	if hi > n {
		hi = n
	}
	return lo, hi
}
