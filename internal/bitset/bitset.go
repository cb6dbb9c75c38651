// Package bitset provides the small dense integer sets of the agreement
// round Protocol D and the dynamic-work variant share (D's S of outstanding
// units, dynamic work's known and done units, and every T of live
// processes) and of gossip's done set. Sets are stored as 64-bit words so
// the hot merge operations of an agreement round (intersection and union
// over views received from every peer) cost O(size/64) word operations
// instead of O(size) boolean loads.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a dense set over 0..size-1.
//
// A set can share its words copy-on-write: AdoptShared points it at a
// received view's frozen words without copying, and the next mutating
// operation copies them first, so every holder of the view sees it frozen.
type Set struct {
	words []uint64
	size  int
	count int
	// shared marks the words as adopted from a view (AdoptShared): mutators
	// must copy before writing.
	shared bool
}

func wordsFor(size int) int { return (size + 63) / 64 }

// lastMask returns the valid-bit mask of the final word.
func lastMask(size int) uint64 {
	if r := size & 63; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// Over builds a set over 0..size-1, optionally full, on caller-owned words:
// exactly (size+63)/64 of them, which the set overwrites and then owns. It
// lets a caller carve the words of many sets from one slab.
func Over(words []uint64, size int, full bool) Set {
	if len(words) != wordsFor(size) {
		panic(fmt.Sprintf("bitset: Over: %d words for domain %d, need %d", len(words), size, wordsFor(size)))
	}
	s := Set{words: words, size: size}
	if full && size > 0 {
		for i := range s.words {
			s.words[i] = ^uint64(0)
		}
		s.words[len(s.words)-1] = lastMask(size)
		s.count = size
	} else {
		clear(s.words)
	}
	return s
}

func (s *Set) recount() {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	s.count = c
}

// own makes the words writable, copying them first if they are shared.
func (s *Set) own() {
	if s.shared {
		w := make([]uint64, len(s.words))
		copy(w, s.words)
		s.words = w
		s.shared = false
	}
}

// Has reports membership.
func (s *Set) Has(i int) bool {
	return i >= 0 && i < s.size && s.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// Add inserts i. Out-of-domain indices panic (word packing would otherwise
// corrupt padding bits silently, where the old []bool layout trapped).
func (s *Set) Add(i int) {
	s.check(i)
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b == 0 {
		s.own()
		s.words[w] |= b
		s.count++
	}
}

// Remove deletes i. Out-of-domain indices panic.
func (s *Set) Remove(i int) {
	s.check(i)
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b != 0 {
		s.own()
		s.words[w] &^= b
		s.count--
	}
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.size {
		panic(fmt.Sprintf("bitset: index %d out of domain [0,%d)", i, s.size))
	}
}

// Clone copies the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), size: s.size, count: s.count}
	copy(c.words, s.words)
	return c
}

// AdoptShared repoints the set at a received view's words (a peer's frozen
// publication), without copying when the layout matches. The adopted words
// are shared — the next mutation copies — so the peers holding the same
// view are unaffected. Mismatched lengths or dirty padding bits fall back
// to a masked copy.
func (s *Set) AdoptShared(words []uint64) {
	need := wordsFor(s.size)
	if len(words) == need && (need == 0 || words[need-1]&^lastMask(s.size) == 0) {
		s.words = words
		s.shared = true
		s.recount()
		return
	}
	if s.shared || len(s.words) != need {
		s.words = make([]uint64, need)
		s.shared = false
	} else {
		clear(s.words)
	}
	copy(s.words, words)
	if need > 0 {
		s.words[need-1] &= lastMask(s.size)
	}
	s.recount()
}

// CopyFrom makes the set an exact copy of o (same domain size required),
// reusing the backing words unless they are shared.
func (s *Set) CopyFrom(o *Set) {
	if s.size != o.size {
		panic(fmt.Sprintf("bitset: CopyFrom domain mismatch: %d != %d", s.size, o.size))
	}
	if s.shared || len(s.words) != len(o.words) {
		s.words = make([]uint64, len(o.words))
		s.shared = false
	}
	copy(s.words, o.words)
	s.count = o.count
}

// Clear empties the set, keeping the domain.
func (s *Set) Clear() {
	if s.shared {
		s.words = make([]uint64, wordsFor(s.size))
		s.shared = false
	} else {
		clear(s.words)
	}
	s.count = 0
}

// Words returns the set's backing words without copying. Callers must treat
// the slice as read-only.
func (s *Set) Words() []uint64 { return s.words }

// Members lists the elements in increasing order.
func (s *Set) Members() []int {
	return s.AppendMembers(make([]int, 0, s.count))
}

// AppendMembers appends the elements in increasing order to dst, returning
// the extended slice — the allocation-free Members for callers with a
// scratch buffer.
func (s *Set) AppendMembers(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// ForEach visits the elements in increasing order. The set must not be
// mutated during the visit.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// RankOf returns the paper's grade: the number of members less than i.
func (s *Set) RankOf(i int) int {
	if i <= 0 {
		return 0
	}
	if i > s.size {
		i = s.size
	}
	r := 0
	for wi := 0; wi < i>>6; wi++ {
		r += bits.OnesCount64(s.words[wi])
	}
	if rem := i & 63; rem != 0 {
		r += bits.OnesCount64(s.words[i>>6] & ((uint64(1) << rem) - 1))
	}
	return r
}

// Select returns the k-th smallest member, counting from 0, or -1 when k
// is negative or the set has no more than k members. With Next it walks a
// rank range of the set without listing it.
func (s *Set) Select(k int) int {
	if k < 0 || k >= s.count {
		return -1
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if k < c {
			for ; k > 0; k-- {
				w &= w - 1
			}
			return wi<<6 + bits.TrailingZeros64(w)
		}
		k -= c
	}
	return -1 // unreachable: count is exact
}

// Next returns the smallest member ≥ i, or -1 when there is none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.size {
		return -1
	}
	wi := i >> 6
	w := s.words[wi] &^ (uint64(1)<<(i&63) - 1)
	for w == 0 {
		if wi++; wi == len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
	return wi<<6 + bits.TrailingZeros64(w)
}

// Intersect removes every element absent from other (the paper's S ∩ Sᵢ).
// Words beyond len(other) are treated as empty.
func (s *Set) Intersect(other []uint64) {
	s.own()
	o := other[:min(len(other), len(s.words))]
	w := s.words[:len(o)]
	c := 0
	for i, x := range o {
		w[i] &= x
		c += bits.OnesCount64(w[i])
	}
	clear(s.words[len(o):])
	s.count = c
}

// Union adds every element of other (the paper's T ∪ Tᵢ); bits beyond the
// set's size are ignored.
func (s *Set) Union(other []uint64) {
	s.own()
	o := other[:min(len(other), len(s.words))]
	w := s.words[:len(o)]
	c := 0
	for i, x := range o {
		w[i] |= x
		c += bits.OnesCount64(w[i])
	}
	for _, x := range s.words[len(o):] {
		c += bits.OnesCount64(x)
	}
	if last := len(s.words) - 1; last >= 0 {
		// Padding bits of other never enter the set.
		pad := s.words[last] &^ lastMask(s.size)
		s.words[last] ^= pad
		c -= bits.OnesCount64(pad)
	}
	s.count = c
}

// Subtract removes every element present in other (set difference).
func (s *Set) Subtract(other []uint64) {
	s.own()
	c := 0
	for i := range s.words {
		if i < len(other) {
			s.words[i] &^= other[i]
		}
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// Equal reports set equality.
func (s *Set) Equal(o *Set) bool {
	if s.count != o.count || s.size != o.size {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (s *Set) Count() int { return s.count }
