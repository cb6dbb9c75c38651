package bitset

import (
	"reflect"
	"slices"
	"testing"
)

// TestSharedFreezesView pins copy-on-write: after a set adopts a published
// view's words (AdoptShared), no mutating operation may write through to
// the view.
func TestSharedFreezesView(t *testing.T) {
	muts := map[string]func(s *Set){
		"Add":       func(s *Set) { s.Add(9) },
		"Remove":    func(s *Set) { s.Remove(2) },
		"Intersect": func(s *Set) { s.Intersect([]uint64{0b100}) },
		"Union":     func(s *Set) { s.Union([]uint64{0b1000000}) },
		"Subtract":  func(s *Set) { s.Subtract([]uint64{0b100}) },
		"Clear":     func(s *Set) { s.Clear() },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			s := New(70, false)
			for _, i := range []int{2, 5, 64} {
				s.Add(i)
			}
			view := slices.Clone(s.Words())
			s.AdoptShared(view)
			frozen := slices.Clone(view)
			mut(s)
			if !reflect.DeepEqual(view, frozen) {
				t.Fatalf("shared view mutated by %s: %v != %v", name, view, frozen)
			}
		})
	}
}

func TestAdoptShared(t *testing.T) {
	src := New(70, false)
	src.Add(3)
	src.Add(66)
	view := slices.Clone(src.Words())
	src.AdoptShared(view)

	dst := New(70, true)
	dst.AdoptShared(view)
	if dst.Count() != 2 || !dst.Has(3) || !dst.Has(66) {
		t.Fatalf("adopted set wrong: count=%d", dst.Count())
	}
	// Adoption is zero-copy when the layout matches...
	if &dst.Words()[0] != &view[0] {
		t.Fatal("AdoptShared copied despite matching layout")
	}
	// ...and the next mutation of either side leaves the other frozen.
	dst.Add(5)
	if src.Has(5) || src.Count() != 2 {
		t.Fatal("mutating the adopter leaked into the source")
	}
	src.Remove(3)
	if !dst.Has(3) {
		t.Fatal("mutating the source leaked into the adopter")
	}

	// Mismatched word counts fall back to a masked copy.
	short := New(70, false)
	short.AdoptShared([]uint64{0b110})
	if short.Count() != 2 || !short.Has(1) || !short.Has(2) {
		t.Fatalf("short adoption wrong: %v", short.Members())
	}

	// Dirty padding bits force the copy path and are masked off.
	dirty := New(3, false)
	dirty.AdoptShared([]uint64{0xFF})
	if dirty.Count() != 3 {
		t.Fatalf("dirty adoption count = %d, want 3", dirty.Count())
	}
}

func TestCopyFromAndClear(t *testing.T) {
	a := New(40, false)
	a.Add(1)
	a.Add(39)
	b := New(40, true)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom not equal")
	}
	b.Add(7)
	if a.Has(7) {
		t.Fatal("CopyFrom aliased the source")
	}
	// CopyFrom into a set whose words are published must not corrupt the
	// published view.
	view := slices.Clone(b.Words())
	b.AdoptShared(view)
	frozen := slices.Clone(view)
	b.CopyFrom(a)
	if !reflect.DeepEqual(view, frozen) {
		t.Fatal("CopyFrom wrote through a shared view")
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear left members")
	}
}

func TestAppendMembersAndForEach(t *testing.T) {
	s := New(130, false)
	want := []int{0, 63, 64, 100, 129}
	for _, i := range want {
		s.Add(i)
	}
	scratch := make([]int, 0, 8)
	got := s.AppendMembers(scratch[:0])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendMembers = %v, want %v", got, want)
	}
	var walked []int
	s.ForEach(func(i int) { walked = append(walked, i) })
	if !reflect.DeepEqual(walked, want) {
		t.Fatalf("ForEach = %v, want %v", walked, want)
	}
}
