// Package arena bump-allocates the frozen payloads processes publish: the
// words of D's, gossip's and dynamic work's views with their boxes, and C's
// report snapshots. A recipient holds a published payload by reference, so
// what is published must never change again. Each publisher keeps its own
// slab and copies into it at publish time; the slab is append-only — when
// it fills it is abandoned to its published holders and a fresh one starts,
// never reset or reused — and every entry is handed out capacity-clamped,
// so an append on the holder's side reallocates instead of bleeding into
// later entries.
//
// A publisher's slabs start at 8 entries and double up to a limit, so a
// short run pays for the few entries it publishes and a long one for few
// slabs. They are cut from a Source the whole build shares: a few large
// source slabs serve every publisher of every machine, instead of each
// publisher allocating each of its own.
package arena

import (
	"sync"
	"unsafe"
)

// Limits of a publisher's slab, in entries: copyLimit for copied slices,
// boxLimit for boxes.
const (
	copyLimit = 512
	boxLimit  = 64
)

// sourceBytes bounds a source slab.
const sourceBytes = 32 << 10

// Source is one build's supply of slab backing for entries of type T. Its
// zero value is ready; it allocates its first source slab at the first
// publish that needs one. It is safe for concurrent use: the machines of one
// build publish from concurrent workers on the live plane, and one build may
// back several engines at once.
type Source[T any] struct {
	mu    sync.Mutex
	free  []T // the unhanded tail of the current source slab
	size  int // entries in the current source slab
	slabs int // source slabs allocated
}

// Slabs returns the number of source slabs s has allocated.
func (s *Source[T]) Slabs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slabs
}

// take returns an empty slab of capacity n cut from the current source
// slab. When that has no room left a fresh source slab replaces it; the
// fresh one is allocated outside the lock, so concurrent publishers wait on
// nothing slower than a bump.
func (s *Source[T]) take(n int) []T {
	s.mu.Lock()
	if len(s.free) >= n {
		defer s.mu.Unlock()
		return s.cut(n)
	}
	size := s.size
	s.mu.Unlock()
	var zero T
	fresh := make([]T, grow(size, n, sourceBytes/int(max(1, unsafe.Sizeof(zero)))))
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < n { // else another publisher replaced it meanwhile: ours is dropped
		s.free, s.size = fresh, len(fresh)
		s.slabs++
	}
	return s.cut(n)
}

// cut hands out the next n entries of the source slab as an empty,
// capacity-clamped slab. The caller holds mu.
func (s *Source[T]) cut(n int) []T {
	r := s.free[:0:n]
	s.free = s.free[n:]
	return r
}

// bump returns the next n zero entries of *slab, capacity-clamped. A slab
// without room for them is abandoned for a fresh one of grow(cap, n, limit)
// entries from src.
func bump[T any](slab *[]T, src *Source[T], n, limit int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = src.take(grow(cap(*slab), n, limit))
	}
	off := len(*slab)
	*slab = (*slab)[:off+n]
	return (*slab)[off : off+n : off+n]
}

// Copy returns a frozen copy of v from *slab.
func Copy[T any](slab *[]T, src *Source[T], v []T) []T {
	dst := bump(slab, src, len(v), copyLimit)
	copy(dst, v)
	return dst
}

// New returns a zero box from *slab.
func New[T any](slab *[]T, src *Source[T]) *T {
	return &bump(slab, src, 1, boxLimit)[0]
}

// grow is the capacity of the slab replacing a full one of capacity old,
// for n entries: room for 8 such requests at first, doubling up to limit,
// and never less than n.
func grow(old, n, limit int) int { return max(n, min(limit, max(8*n, 2*old))) }
