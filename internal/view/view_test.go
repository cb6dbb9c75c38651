package view

import (
	"testing"
	"testing/quick"

	"repro/internal/group"
)

func newIx(t int) *Index { return NewIndex(group.NewLevels(t)) }

func TestIndexSlots(t *testing.T) {
	ix := newIx(8)
	// G0 + 7 groups of the binary tree over 8 processes.
	if ix.Slots() != 8 {
		t.Fatalf("slots = %d, want 8", ix.Slots())
	}
	if ix.Slot(group.G0) != 0 {
		t.Fatal("G0 must be slot 0")
	}
}

func TestInitialView(t *testing.T) {
	ix := newIx(8)
	v := New(ix, 0, 8, new(Sources))
	if v.WorkPoint() != 1 {
		t.Fatalf("work point = %d, want 1", v.WorkPoint())
	}
	if v.Reduced() != 0 {
		t.Fatalf("reduced = %d, want 0", v.Reduced())
	}
	// Pointer of process 0's level-1 group (all processes) must skip owner.
	slot := ix.Slot(group.GroupID{Level: 1, Index: 0})
	if v.Pointer(slot) != 1 {
		t.Fatalf("level-1 pointer = %d, want 1 (lowest excluding owner)", v.Pointer(slot))
	}
	// A group not containing the owner points at its lowest member.
	gid, _ := ix.Levels().GroupOf(7, 3)
	if p := New(ix, 0, 8, new(Sources)).Pointer(ix.Slot(gid)); p != 6 {
		t.Fatalf("pointer into %v = %d, want 6", gid, p)
	}
}

func TestReducedView(t *testing.T) {
	ix := newIx(4)
	v := New(ix, 0, 4, new(Sources))
	v.AdvanceWork(1)
	v.AdvanceWork(2)
	v.MarkFaulty(3)
	if v.Reduced() != 3 {
		t.Fatalf("reduced = %d, want 2 work + 1 fault = 3", v.Reduced())
	}
	// Marking the same process twice does not double-count.
	v.MarkFaulty(3)
	if v.FaultyCount() != 1 {
		t.Fatalf("faulty count = %d, want 1", v.FaultyCount())
	}
}

func TestMergeByRecency(t *testing.T) {
	ix := newIx(4)
	a := New(ix, 0, 4, new(Sources))
	b := New(ix, 1, 4, new(Sources))
	slot := ix.Slot(group.GroupID{Level: 1, Index: 0})
	b.SetPointer(slot, 3, 10)
	b.MarkFaulty(2)
	b.AdvanceWork(9)

	a.Merge(b.Snapshot())
	if a.Pointer(slot) != 3 {
		t.Fatalf("pointer not adopted: %d", a.Pointer(slot))
	}
	if !a.Faulty(2) {
		t.Fatal("faulty set not merged")
	}
	if a.WorkPoint() != 2 {
		t.Fatalf("work point = %d, want 2", a.WorkPoint())
	}

	// Older info must not overwrite newer.
	stale := New(ix, 2, 4, new(Sources))
	stale.SetPointer(slot, 1, 5) // round 5 < 10
	a.Merge(stale.Snapshot())
	if a.Pointer(slot) != 3 {
		t.Fatalf("stale merge overwrote pointer: %d", a.Pointer(slot))
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	ix := newIx(4)
	v := New(ix, 0, 4, new(Sources))
	s := v.Snapshot()
	v.MarkFaulty(1)
	v.AdvanceWork(3)
	if s.Faulty[1] || s.Point[0] != 1 {
		t.Fatal("snapshot aliases the view")
	}
}

func TestNormalizedPointerSkipsFaulty(t *testing.T) {
	ix := newIx(8)
	v := New(ix, 0, 8, new(Sources))
	slot := ix.Slot(group.GroupID{Level: 1, Index: 0}) // group {0..7}
	// Pointer starts at 1; mark 1 and 2 faulty: normalization lands on 3.
	v.MarkFaulty(1)
	v.MarkFaulty(2)
	got, ok := v.NormalizedPointer(slot, 0)
	if !ok || got != 3 {
		t.Fatalf("normalized = %d,%v, want 3", got, ok)
	}
	// Everyone else faulty: not ok.
	for p := 3; p < 8; p++ {
		v.MarkFaulty(p)
	}
	if _, ok := v.NormalizedPointer(slot, 0); ok {
		t.Fatal("want not-ok when all others retired")
	}
}

func TestSuccessorWraps(t *testing.T) {
	ix := newIx(4)
	v := New(ix, 0, 4, new(Sources))
	gid, _ := ix.Levels().GroupOf(0, 2) // {0,1}
	slot := ix.Slot(gid)
	s, ok := v.Successor(slot, 1, 0)
	if !ok || s != 1 {
		t.Fatalf("successor of 1 in {0,1}\\{0} = %d,%v, want itself", s, ok)
	}
}

func TestMergeMonotoneProperty(t *testing.T) {
	// Merging can never decrease the reduced view.
	ix := newIx(8)
	f := func(work uint8, faults uint8, owner uint8) bool {
		v := New(ix, int(owner%8), 8, new(Sources))
		o := New(ix, int(owner+1)%8, 8, new(Sources))
		for i := 0; i < int(work%6); i++ {
			o.AdvanceWork(int64(i + 1))
		}
		for p := 0; p < 8; p++ {
			if faults&(1<<p) != 0 && p != int(owner%8) {
				o.MarkFaulty(p)
			}
		}
		before := v.Reduced()
		v.Merge(o.Snapshot())
		return v.Reduced() >= before && v.Reduced() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCommutativeOnReducedView(t *testing.T) {
	// Order of merging two snapshots never changes the resulting reduced
	// view (pointwise max/union are commutative).
	ix := newIx(8)
	f := func(w1, w2, f1, f2 uint8) bool {
		mkSnap := func(work int, faults uint8, owner int) Snapshot {
			v := New(ix, owner, 8, new(Sources))
			for i := 0; i < work%7; i++ {
				v.AdvanceWork(int64(10 + i))
			}
			for p := 0; p < 8; p++ {
				if faults&(1<<p) != 0 && p != owner {
					v.MarkFaulty(p)
				}
			}
			return v.Snapshot()
		}
		s1 := mkSnap(int(w1), f1, 1)
		s2 := mkSnap(int(w2), f2, 2)
		a := New(ix, 0, 8, new(Sources))
		a.Merge(s1)
		a.Merge(s2)
		b := New(ix, 0, 8, new(Sources))
		b.Merge(s2)
		b.Merge(s1)
		return a.Reduced() == b.Reduced() && a.WorkPoint() == b.WorkPoint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	ix := newIx(8)
	v := New(ix, 0, 8, new(Sources))
	o := New(ix, 1, 8, new(Sources))
	o.AdvanceWork(2)
	o.MarkFaulty(5)
	s := o.Snapshot()
	v.Merge(s)
	r1 := v.Reduced()
	v.Merge(s)
	if v.Reduced() != r1 {
		t.Fatalf("second merge changed reduced view: %d -> %d", r1, v.Reduced())
	}
}
