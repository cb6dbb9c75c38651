package bitset

import (
	"testing"
	"testing/quick"
)

// New builds a set over 0..size-1, optionally full, on fresh words.
func New(size int, full bool) *Set {
	s := Over(make([]uint64, wordsFor(size)), size, full)
	return &s
}

func TestBasicOps(t *testing.T) {
	s := New(8, false)
	if s.Count() != 0 || s.Has(3) {
		t.Fatal("fresh set not empty")
	}
	s.Add(3)
	s.Add(3)
	s.Add(5)
	if s.Count() != 2 || !s.Has(3) || !s.Has(5) || s.Has(4) {
		t.Fatalf("after adds: %v", s.Members())
	}
	s.Remove(3)
	s.Remove(3)
	if s.Count() != 1 || s.Has(3) {
		t.Fatal("remove broken")
	}
	full := New(4, true)
	if full.Count() != 4 {
		t.Fatal("full set wrong")
	}
}

func TestOverCarvedWords(t *testing.T) {
	// Two sets carved side by side from one slab, the second over dirty
	// words: each owns exactly its own words.
	slab := []uint64{0, 0, ^uint64(0), ^uint64(0)}
	a, b := Over(slab[:2:2], 70, true), Over(slab[2:], 70, false)
	if a.Count() != 70 || b.Count() != 0 || b.Has(3) {
		t.Fatalf("counts %d, %d", a.Count(), b.Count())
	}
	b.Add(69)
	a.Remove(69)
	if !b.Has(69) || a.Has(69) || a.Count() != 69 || b.Count() != 1 {
		t.Fatal("carved sets alias")
	}
	if slab[1] != lastMask(70)&^(1<<5) || slab[3] != 1<<5 {
		t.Fatalf("words %x", slab)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Over accepted 1 word for a 70-element domain")
		}
	}()
	Over(slab[:1], 70, false)
}

func TestMembersAndRank(t *testing.T) {
	s := New(8, false)
	for _, x := range []int{6, 1, 4} {
		s.Add(x)
	}
	m := s.Members()
	if len(m) != 3 || m[0] != 1 || m[1] != 4 || m[2] != 6 {
		t.Fatalf("members = %v", m)
	}
	if s.RankOf(1) != 0 || s.RankOf(4) != 1 || s.RankOf(6) != 2 || s.RankOf(7) != 3 {
		t.Fatal("ranks wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(4, true)
	c := s.Clone()
	c.Remove(0)
	if !s.Has(0) || c.Has(0) {
		t.Fatal("clone aliases")
	}
	if !s.Equal(s.Clone()) || s.Equal(c) {
		t.Fatal("equal wrong")
	}
}

func TestIntersectUnion(t *testing.T) {
	a := New(6, false)
	for _, x := range []int{1, 2, 3} {
		a.Add(x)
	}
	b := New(6, false)
	for _, x := range []int{2, 3, 4} {
		b.Add(x)
	}
	i := a.Clone()
	i.Intersect(b.Words())
	if len(i.Members()) != 2 || !i.Has(2) || !i.Has(3) {
		t.Fatalf("intersect = %v", i.Members())
	}
	u := a.Clone()
	u.Union(b.Words())
	if u.Count() != 4 {
		t.Fatalf("union = %v", u.Members())
	}
	// Subtraction is intersection with the complement.
	d := a.Clone()
	d.Subtract(b.Words())
	if d.Count() != 1 || !d.Has(1) {
		t.Fatalf("subtract = %v", d.Members())
	}
}

func TestRankAcrossWords(t *testing.T) {
	s := New(200, false)
	for _, x := range []int{0, 63, 64, 130, 199} {
		s.Add(x)
	}
	want := map[int]int{0: 0, 1: 1, 63: 1, 64: 2, 65: 3, 130: 3, 131: 4, 199: 4, 200: 5}
	for i, r := range want {
		if got := s.RankOf(i); got != r {
			t.Fatalf("RankOf(%d) = %d, want %d", i, got, r)
		}
	}
}

func TestSetLawsProperty(t *testing.T) {
	// Intersection is a lower bound, union an upper bound, counts agree
	// with membership.
	f := func(aBits, bBits uint16) bool {
		a, b := fromMask(aBits), fromMask(bBits)
		i := a.Clone()
		i.Intersect(b.Words())
		u := a.Clone()
		u.Union(b.Words())
		for x := 0; x < 16; x++ {
			if i.Has(x) != (a.Has(x) && b.Has(x)) {
				return false
			}
			if u.Has(x) != (a.Has(x) || b.Has(x)) {
				return false
			}
		}
		d := a.Clone()
		d.Subtract(b.Words())
		for x := 0; x < 16; x++ {
			if d.Has(x) != (a.Has(x) && !b.Has(x)) {
				return false
			}
		}
		return i.Count() == len(i.Members()) && u.Count() == len(u.Members()) &&
			d.Count() == len(d.Members())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fromMask(m uint16) *Set {
	s := New(16, false)
	for x := 0; x < 16; x++ {
		if m&(1<<x) != 0 {
			s.Add(x)
		}
	}
	return s
}
