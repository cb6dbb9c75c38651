package core

import "sync"

// Protocol builders (A, B, C, D, gossip, dynamic work's rounds) carve the
// machines they build from per-builder slabs instead of allocating each
// one's parts. A builder's closure owns the slabs: one backing array per
// part kind (the machine structs, publish arenas, bitset words and Sets,
// gossip's peer rotations, the fixed-size scratch), each holding the parts of
// a batch of machines. Every
// Steppers(id) call carves the next machine's regions and never hands a
// region out twice, so each call still returns a fresh machine independent
// of every other, and a run pays a few allocations per part kind instead
// of a few per process.
//
// Batches grow geometrically — 1, 2, 4, … machines — capped at what a full
// build of t machines still needs, so a run of t processes allocates about
// log₂ t arrays per part kind and wastes none of them, while a join that
// hosts one PID pays for one machine. One Procs value may back several
// engines concurrently, so the carving is under the batcher's lock.

// batcher paces a builder's batches.
type batcher struct {
	mu    sync.Mutex
	t     int // machines in a full build
	calls int // machines handed out
	size  int // machines in the current batch
	left  int // machines of the current batch not yet handed out
}

// next reserves one machine from the current batch. When that batch is
// used up it returns the size k > 0 of the next one, and the caller must
// give every slab fresh backing for k machines before it carves; else it
// returns 0. The caller holds mu.
func (b *batcher) next() int {
	k := 0
	if b.left == 0 {
		pos := b.calls % b.t
		if pos == 0 {
			b.size = 0 // a new full build starts small again
		}
		b.size = min(max(2*b.size, 1), b.t-pos)
		b.left, k = b.size, b.size
	}
	b.left--
	b.calls++
	return k
}

// carve cuts the next n elements off the front of *slab, capacity-clamped
// so that an append to the region reallocates instead of running into the
// next one.
func carve[T any](slab *[]T, n int) []T {
	r := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return r
}

// machineSlab carves machine structs of type M, for builders whose
// machines own nothing else of their own (Protocols A and B), or whose
// other parts are carved elsewhere (D's round by an EBABuilder, C's view
// by internal/view).
type machineSlab[M any] struct {
	batcher
	free []M
}

func newMachineSlab[M any](t int) *machineSlab[M] {
	return &machineSlab[M]{batcher: batcher{t: t}}
}

// take returns the next zero machine.
func (s *machineSlab[M]) take() *M {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := s.next(); k > 0 {
		s.free = make([]M, k)
	}
	return &carve(&s.free, 1)[0]
}

// setWords is the number of bitset words of a set over 0..size-1.
func setWords(size int) int { return (size + 63) / 64 }
