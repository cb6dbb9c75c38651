package sim

import "math/bits"

// runSet is a dense bitset of process IDs that are runnable in the current
// round. The round core maintains it incrementally — a bit is set exactly when
// the process is live and either not sleeping, holding undrained mail, or
// past its wake time — so the per-round scheduling scan touches words, not
// processes.
type runSet struct {
	words []uint64
	count int
}

// reset empties the set and resizes it for n processes, reusing the word
// buffer when it is large enough.
func (s *runSet) reset(n int) {
	need := (n + 63) / 64
	if need <= cap(s.words) {
		s.words = s.words[:need]
		clear(s.words)
	} else {
		s.words = make([]uint64, need)
	}
	s.count = 0
}

func (s *runSet) add(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.count++
	}
}

func (s *runSet) remove(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.count--
	}
}

// next returns the lowest set bit above after (-1 to start), or -1 when
// there is none. Callers may clear bits at or below the returned one between
// calls, which is all a round's commits do: a walk visits exactly the bits
// that were set when it began.
func (s *runSet) next(after int) int {
	i := after + 1
	w := i >> 6
	if w >= len(s.words) {
		return -1
	}
	word := s.words[w] &^ (uint64(1)<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(s.words) {
			return -1
		}
		word = s.words[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// wakeEntry is one scheduled wake-up in the sleeper heap. Entries are never
// removed eagerly: when a sleeper is woken early (by a message) or dies, its
// entry goes stale and is discarded on pop by re-checking the process state.
type wakeEntry struct {
	at  int64
	pid int
}

// wakeHeap is a min-heap of wake times, ordered by (round, pid) so that
// scheduling decisions stay deterministic. It is hand-rolled rather than
// built on container/heap to avoid boxing an entry per push on the hot path.
type wakeHeap []wakeEntry

func (h wakeHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].pid < h[j].pid)
}

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *wakeHeap) popTop() wakeEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
