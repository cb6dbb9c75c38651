// Package group implements the process-grouping mathematics used by the
// Dwork–Halpern–Waarts protocols: the √t partition of Protocols A and B, the
// recursive binary level tree of Protocol C, and cyclic successor orders with
// exclusion sets.
//
// Groups are 1-indexed to match the paper's notation (g ∈ 1..G).
package group

import "fmt"

// Sqrt is the √t partition of processes 0..T-1 used by Protocols A and B:
// G groups of size S (the last group may be smaller when T is not a perfect
// square).
type Sqrt struct {
	T int // number of processes
	S int // group size, ceil(sqrt(T))
	G int // number of groups, ceil(T/S)
}

// NewSqrt builds the √t partition for t processes.
func NewSqrt(t int) Sqrt {
	if t <= 0 {
		panic(fmt.Sprintf("group: NewSqrt(%d): t must be positive", t))
	}
	s := ceilSqrt(t)
	return Sqrt{T: t, S: s, G: (t + s - 1) / s}
}

// ceilSqrt returns ⌈√x⌉.
func ceilSqrt(x int) int {
	if x <= 1 {
		return x
	}
	r := 1
	for r*r < x {
		r++
	}
	return r
}

// GroupOf returns the 1-indexed group of process i (the paper's gᵢ).
func (q Sqrt) GroupOf(i int) int {
	q.checkPID(i)
	return i/q.S + 1
}

// Members returns the process IDs of group g in increasing order.
func (q Sqrt) Members(g int) []int {
	q.checkGroup(g)
	lo, hi := q.Bounds(g)
	m := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		m = append(m, i)
	}
	return m
}

// Bounds returns the half-open process-ID interval [lo, hi) of group g.
func (q Sqrt) Bounds(g int) (lo, hi int) {
	q.checkGroup(g)
	lo = (g - 1) * q.S
	hi = lo + q.S
	if hi > q.T {
		hi = q.T
	}
	return lo, hi
}

// Offset returns j mod S, the paper's ȷ̄ (position of j within its group).
func (q Sqrt) Offset(j int) int {
	q.checkPID(j)
	return j % q.S
}

// IsPerfect reports whether T is a perfect square with equal-size groups,
// i.e. whether the paper's canonical assumptions hold exactly.
func (q Sqrt) IsPerfect() bool { return q.S*q.S == q.T }

func (q Sqrt) checkPID(i int) {
	if i < 0 || i >= q.T {
		panic(fmt.Sprintf("group: pid %d out of range [0,%d)", i, q.T))
	}
}

func (q Sqrt) checkGroup(g int) {
	if g < 1 || g > q.G {
		panic(fmt.Sprintf("group: group %d out of range [1,%d]", g, q.G))
	}
}
