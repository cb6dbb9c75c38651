// Package view implements Protocol C's knowledge state: the set F of
// processes known to be retired, and per-group pointer/round tables tracking
// the last known report into each group of the level tree (plus the work
// pointer into G0). Views are merged pointwise by recency and compared by
// the paper's "reduced view" scalar.
package view

import (
	"fmt"

	"repro/internal/group"
)

// Index flattens the groups of a level tree (plus G0) into dense slots so
// views can be stored and copied as slices. Slot 0 is always G0.
type Index struct {
	lv    group.Levels
	ids   []group.GroupID
	spans []group.Span
	slot  map[group.GroupID]int
}

// NewIndex builds the group index for a level tree.
func NewIndex(lv group.Levels) *Index {
	ids := append([]group.GroupID{group.G0}, lv.AllGroups()...)
	ix := &Index{
		lv:    lv,
		ids:   ids,
		spans: make([]group.Span, len(ids)),
		slot:  make(map[group.GroupID]int, len(ids)),
	}
	for i, id := range ids {
		ix.slot[id] = i
		if i > 0 {
			ix.spans[i] = lv.Span(id)
		}
	}
	return ix
}

// Levels returns the underlying level tree.
func (ix *Index) Levels() group.Levels { return ix.lv }

// Slots returns the number of tracked groups including G0.
func (ix *Index) Slots() int { return len(ix.ids) }

// Slot returns the dense index of a group.
func (ix *Index) Slot(id group.GroupID) int {
	s, ok := ix.slot[id]
	if !ok {
		panic(fmt.Sprintf("view: unknown group %v", id))
	}
	return s
}

// Span returns the process span of the group in the given slot (slot > 0).
func (ix *Index) Span(slot int) group.Span { return ix.spans[slot] }

// View is one process's knowledge. The zero value is not usable; use New.
type View struct {
	ix *Index
	// faulty[p] records that p is known to be retired; faultyCount = |F|.
	faulty      []bool
	faultyCount int
	// point[s] is, for s = 0, the next unit of work to perform (the paper's
	// pointᵢ[G0]); for s > 0, the process in the group of slot s that the
	// next report into that group should go to.
	point []int
	// round[s] is the round at which the last known report recorded in
	// point[s] was sent (0 = initial).
	round []int64
	// arena backs the snapshots the view publishes; Clones share it.
	arena *snapArena
}

// snapArena bump-allocates the slices of published Snapshots. Its slabs are
// append-only: a full slab is abandoned to the snapshots already carved
// from it, never reset or reused, so every published Snapshot stays frozen
// for the view's lifetime — however long a recipient holds it — and a view
// and its crash-recovery Clones can share one arena, since neither can
// overwrite what the other published.
type snapArena struct {
	faulty []bool
	point  []int
	round  []int64
}

// carve copies src into the slab and returns the frozen copy, capacity
// -clamped so an append on the holder's side reallocates instead of
// bleeding into later snapshots. A full slab is replaced by one with room
// for 8 copies at first, doubling up to 512 entries.
func carve[T any](slab *[]T, src []T) []T {
	n := len(src)
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, min(512, max(8*n, 2*cap(*slab)))))
	}
	off := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[off : off+n : off+n]
}

// New builds the initial view of process owner: no known failures, work
// pointer 1, and each group pointer at the lowest-numbered member other
// than owner.
func New(ix *Index, owner, t int) *View {
	v := &View{
		ix:     ix,
		faulty: make([]bool, t),
		point:  make([]int, ix.Slots()),
		round:  make([]int64, ix.Slots()),
		arena:  new(snapArena),
	}
	v.point[0] = 1
	for s := 1; s < ix.Slots(); s++ {
		span := ix.spans[s]
		first := span.Lo
		if first == owner {
			first++
		}
		if first >= span.Hi {
			first = span.Lo // singleton {owner}: pointer degenerate
		}
		v.point[s] = first
	}
	return v
}

// Clone returns an independent deep copy of the view; only the immutable
// Index and the append-only snapshot arena are shared. Crash-recovery
// checkpoints of Protocol C machines rely on the clone being insulated from
// every later mutation of the original.
func (v *View) Clone() *View {
	return &View{
		ix:          v.ix,
		faulty:      append([]bool(nil), v.faulty...),
		faultyCount: v.faultyCount,
		point:       append([]int(nil), v.point...),
		round:       append([]int64(nil), v.round...),
		arena:       v.arena,
	}
}

// CopyFrom makes v an exact copy of o's state, reusing v's own slices and
// keeping its own arena; only the immutable Index is shared. Protocol C
// machines restore crash-recovery checkpoints through it without
// allocating.
func (v *View) CopyFrom(o *View) {
	v.ix = o.ix
	v.faulty = append(v.faulty[:0], o.faulty...)
	v.faultyCount = o.faultyCount
	v.point = append(v.point[:0], o.point...)
	v.round = append(v.round[:0], o.round...)
}

// Snapshot is an immutable copy of a view, carried inside ordinary messages.
type Snapshot struct {
	Faulty []bool
	Point  []int
	Round  []int64
}

// Snapshot deep-copies the view's state into the view's snapshot arena.
func (v *View) Snapshot() Snapshot {
	return Snapshot{
		Faulty: carve(&v.arena.faulty, v.faulty),
		Point:  carve(&v.arena.point, v.point),
		Round:  carve(&v.arena.round, v.round),
	}
}

// Merge folds a received snapshot into the view: failure sets union, and
// each group slot adopts the snapshot's pointer when its round is more
// recent.
func (v *View) Merge(s Snapshot) {
	for p, f := range s.Faulty {
		if f {
			v.MarkFaulty(p)
		}
	}
	for slot := range v.point {
		if slot < len(s.Round) && s.Round[slot] > v.round[slot] {
			v.round[slot] = s.Round[slot]
			v.point[slot] = s.Point[slot]
		}
	}
}

// MarkFaulty records that process p has retired.
func (v *View) MarkFaulty(p int) {
	if p >= 0 && p < len(v.faulty) && !v.faulty[p] {
		v.faulty[p] = true
		v.faultyCount++
	}
}

// Faulty reports whether p is known to be retired.
func (v *View) Faulty(p int) bool { return p >= 0 && p < len(v.faulty) && v.faulty[p] }

// FaultyCount returns |F|.
func (v *View) FaultyCount() int { return v.faultyCount }

// Reduced returns the paper's reduced view: pointᵢ[G0] − 1 + |Fᵢ|, the
// number of work units known done plus the number of known failures.
func (v *View) Reduced() int { return v.point[0] - 1 + v.faultyCount }

// WorkPoint returns the next unit of work to perform (pointᵢ[G0]).
func (v *View) WorkPoint() int { return v.point[0] }

// AdvanceWork records that unit WorkPoint() was performed at the given
// round.
func (v *View) AdvanceWork(round int64) {
	v.point[0]++
	v.round[0] = round
}

// Pointer returns the current pointer into the group at slot.
func (v *View) Pointer(slot int) int { return v.point[slot] }

// SetPointer records a report into the group at slot: the report was sent at
// round `round` and the next report should go to `next`.
func (v *View) SetPointer(slot, next int, round int64) {
	v.point[slot] = next
	v.round[slot] = round
}

// AdvancePointer moves the pointer without touching the round: used when a
// failed poll skips past a retired process (no message entered the group, so
// there is nothing new to timestamp; merged F sets let other processes skip
// the same way).
func (v *View) AdvancePointer(slot, next int) {
	v.point[slot] = next
}

// NormalizedPointer returns the first eligible target at or cyclically after
// the group pointer, skipping owner and known-retired processes. ok=false
// means every other member of the group is known retired.
func (v *View) NormalizedPointer(slot, owner int) (int, bool) {
	span := v.ix.Span(slot)
	cur := v.point[slot]
	excl := func(p int) bool { return p == owner || v.Faulty(p) }
	if cur >= span.Lo && cur < span.Hi && !excl(cur) {
		return cur, true
	}
	if cur < span.Lo || cur >= span.Hi {
		cur = span.Lo
		if !excl(cur) {
			return cur, true
		}
	}
	return group.CyclicSuccessor(span.Lo, span.Hi, cur, excl)
}

// Successor returns the cyclic successor of p within the group at slot,
// skipping owner and known-retired processes; ok=false when no eligible
// process remains.
func (v *View) Successor(slot, p, owner int) (int, bool) {
	span := v.ix.Span(slot)
	excl := func(q int) bool { return q == owner || v.Faulty(q) }
	return group.CyclicSuccessor(span.Lo, span.Hi, p, excl)
}
