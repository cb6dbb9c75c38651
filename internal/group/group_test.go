package group

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSqrtCanonical(t *testing.T) {
	q := NewSqrt(16)
	if q.S != 4 || q.G != 4 || !q.IsPerfect() {
		t.Fatalf("NewSqrt(16) = %+v", q)
	}
	if g := q.GroupOf(0); g != 1 {
		t.Fatalf("GroupOf(0) = %d, want 1", g)
	}
	if g := q.GroupOf(15); g != 4 {
		t.Fatalf("GroupOf(15) = %d, want 4", g)
	}
	if m := q.Members(2); !reflect.DeepEqual(m, []int{4, 5, 6, 7}) {
		t.Fatalf("Members(2) = %v", m)
	}
	if o := q.Offset(6); o != 2 {
		t.Fatalf("Offset(6) = %d, want 2", o)
	}
}

func TestSqrtRagged(t *testing.T) {
	q := NewSqrt(10) // S=4, G=3, last group {8,9}
	if q.S != 4 || q.G != 3 || q.IsPerfect() {
		t.Fatalf("NewSqrt(10) = %+v", q)
	}
	if m := q.Members(3); !reflect.DeepEqual(m, []int{8, 9}) {
		t.Fatalf("Members(3) = %v", m)
	}
	lo, hi := q.Bounds(3)
	if lo != 8 || hi != 10 {
		t.Fatalf("Bounds(3) = [%d,%d)", lo, hi)
	}
}

func TestSqrtPartitionProperty(t *testing.T) {
	// Every process belongs to exactly one group, and groups tile 0..T-1.
	f := func(raw uint8) bool {
		tt := int(raw%200) + 1
		q := NewSqrt(tt)
		seen := make([]int, tt)
		for g := 1; g <= q.G; g++ {
			for _, i := range q.Members(g) {
				seen[i]++
				if q.GroupOf(i) != g {
					return false
				}
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCeilSqrt(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 9: 3, 10: 4, 16: 4, 17: 5}
	for x, want := range cases {
		if got := ceilSqrt(x); got != want {
			t.Errorf("ceilSqrt(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 1024: 10}
	for x, want := range cases {
		if got := CeilLog2(x); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLevelsPowerOfTwo(t *testing.T) {
	lv := NewLevels(8)
	if lv.L != 3 {
		t.Fatalf("L = %d, want 3", lv.L)
	}
	// Level 1: one group of 8; level 2: two of 4; level 3: four pairs.
	if g := lv.Groups(1); len(g) != 1 || g[0].Size() != 8 {
		t.Fatalf("level 1 = %v", g)
	}
	if g := lv.Groups(2); len(g) != 2 || g[0].Size() != 4 || g[1].Size() != 4 {
		t.Fatalf("level 2 = %v", g)
	}
	if g := lv.Groups(3); len(g) != 4 || g[0].Size() != 2 {
		t.Fatalf("level 3 = %v", g)
	}
	id, span := lv.GroupOf(5, 3)
	if id != (GroupID{Level: 3, Index: 2}) || span != (Span{Lo: 4, Hi: 6}) {
		t.Fatalf("GroupOf(5,3) = %v %v", id, span)
	}
	// Paper: group sizes at level h are 2^(log t - h + 1).
	for h := 1; h <= 3; h++ {
		want := 1 << (3 - h + 1)
		for _, s := range lv.Groups(h) {
			if s.Size() != want {
				t.Fatalf("level %d group size %d, want %d", h, s.Size(), want)
			}
		}
	}
}

func TestLevelsPartitionProperty(t *testing.T) {
	f := func(raw uint8) bool {
		tt := int(raw%100) + 1
		lv := NewLevels(tt)
		for h := 1; h <= lv.L; h++ {
			seen := make([]int, tt)
			for _, s := range lv.Groups(h) {
				for i := s.Lo; i < s.Hi; i++ {
					seen[i]++
				}
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelsNesting(t *testing.T) {
	// Each level-h group of size > 1 splits into exactly two level-(h+1)
	// groups.
	lv := NewLevels(13)
	for h := 1; h < lv.L; h++ {
		for _, s := range lv.Groups(h) {
			children := 0
			for _, c := range lv.Groups(h + 1) {
				if c.Lo >= s.Lo && c.Hi <= s.Hi {
					children++
				}
			}
			want := 2
			if s.Size() <= 1 {
				want = 1
			}
			if children != want {
				t.Fatalf("level %d span %v has %d children, want %d", h, s, children, want)
			}
		}
	}
}

func TestCyclicSuccessor(t *testing.T) {
	none := func(int) bool { return false }
	if s, ok := CyclicSuccessor(0, 4, 1, none); !ok || s != 2 {
		t.Fatalf("succ(1) = %d,%v", s, ok)
	}
	if s, ok := CyclicSuccessor(0, 4, 3, none); !ok || s != 0 {
		t.Fatalf("succ(3) wraps = %d,%v", s, ok)
	}
	excl := func(x int) bool { return x == 2 || x == 3 }
	if s, ok := CyclicSuccessor(0, 4, 1, excl); !ok || s != 0 {
		t.Fatalf("succ skipping = %d,%v", s, ok)
	}
	all := func(int) bool { return true }
	if _, ok := CyclicSuccessor(0, 4, 1, all); ok {
		t.Fatal("all-excluded should report not ok")
	}
	// j itself is a candidate after a full cycle when not excluded.
	exceptSelf := func(x int) bool { return x != 1 }
	if s, ok := CyclicSuccessor(0, 4, 1, exceptSelf); !ok || s != 1 {
		t.Fatalf("succ full-cycle = %d,%v", s, ok)
	}
	// Offset interval.
	if s, ok := CyclicSuccessor(4, 6, 5, none); !ok || s != 4 {
		t.Fatalf("succ offset interval = %d,%v", s, ok)
	}
}

func TestGroupIDString(t *testing.T) {
	if s := (GroupID{Level: 2, Index: 1}).String(); s != "G(2,1)" {
		t.Fatalf("String = %q", s)
	}
}

func TestLevelsSingleProcess(t *testing.T) {
	lv := NewLevels(1)
	if lv.L != 0 {
		t.Fatalf("L = %d, want 0", lv.L)
	}
	if ids := lv.AllGroups(); len(ids) != 0 {
		t.Fatalf("AllGroups = %v, want empty", ids)
	}
}

func TestAllGroupsCount(t *testing.T) {
	// For t a power of two there are t-1 groups in total (binary tree).
	lv := NewLevels(16)
	if got := len(lv.AllGroups()); got != 15 {
		t.Fatalf("AllGroups count = %d, want 15", got)
	}
}
