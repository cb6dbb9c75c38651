package core

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// EBARound is one process's agreement phase in the style of Eventual
// Byzantine Agreement (the paper's Agree, Fig. 4), which Protocol D runs
// between work phases and the §4 dynamic-work variant every period. Each
// round a process broadcasts its T (processes believed correct) and payload
// sets, until U, the processes it still hears from, is stable across two
// rounds (after a one-round grace in phases after the first: processes may
// be skewed by one round) or a decided view arrives, which it adopts. The
// caller declares the payload sets (EBASet), files each delivered view of
// its payload type with Take and boxes the words Publish freezes. A round
// is embedded by value; a checkpoint is a struct copy plus sets.
type EBARound struct {
	j, phase int
	ctr      int  // rounds of this phase so far; 0 in a grace round
	decided  bool // this round decided or adopted a decided view

	// t is the agreed T, tNew the T rebuilt from who is heard; u and uPrev
	// are U now and a round ago.
	t, tNew, u, uPrev *bitset.Set
	sets              [maxEBASets]ebaSet
	nsets             int

	heard []bool
	rcpts []int     // recipient scratch
	buf   []ebaView // views for later phases, in arrival order
	arena *viewArena
}

const maxEBASets = 2 // dynamic work's known and done

// ebaSet is a payload set, agreed and in flight (swapped at a decision).
type ebaSet struct {
	agreed, cur *bitset.Set
	intersect   bool
}

// ebaView is a received view, holding its frozen words by reference.
type ebaView struct {
	from, phase int
	decided     bool
	t           []uint64
	sets        [maxEBASets][]uint64
}

// EBASet declares a payload set: its domain 0..Size-1 and whether views
// merge by intersection (else by union). It starts as its merge's
// identity: full for an intersection, empty for a union.
type EBASet struct {
	Size      int
	Intersect bool
}

// Set is the agreed payload set i, in declaration order.
func (r *EBARound) Set(i int) *bitset.Set { return r.sets[i].agreed }

// Share is this process's part of an even split of n units by rank over T:
// the units of rank lo..hi-1, in a phase of chunk rounds.
func (r *EBARound) Share(n int) (lo, hi, chunk int) {
	chunk = (n + r.t.Count() - 1) / r.t.Count()
	lo = min(r.t.RankOf(r.j)*chunk, n)
	return lo, min(lo+chunk, n), chunk
}

// Begin opens the next phase's agreement on the agreed sets.
func (r *EBARound) Begin() {
	r.phase++
	r.u.CopyFrom(r.t)
	r.tNew.Clear()
	r.tNew.Add(r.j)
	for i := range r.nsets {
		r.sets[i].cur.CopyFrom(r.sets[i].agreed)
	}
	r.ctr = 1
	if r.phase > 1 {
		r.ctr = 0 // one-round grace: processes may be skewed by one round
	}
}

// Open starts a round, folding in the views buffered for this phase.
func (r *EBARound) Open() {
	r.uPrev.CopyFrom(r.u)
	clear(r.heard)
	r.decided = false
	later := r.buf[:0]
	for i := range r.buf {
		switch v := &r.buf[i]; {
		case v.phase == r.phase:
			r.fold(v.from, v.decided, v.t, &v.sets)
		case v.phase > r.phase:
			later = append(later, *v)
		}
	}
	clear(r.buf[len(later):]) // drop the references filtered out
	r.buf = later
}

// Take files a view delivered this round: this phase's is folded in, a
// later phase's buffered, an earlier one's dropped.
func (r *EBARound) Take(from, phase int, decided bool, t []uint64, sets *[maxEBASets][]uint64) {
	switch {
	case phase == r.phase:
		r.fold(from, decided, t, sets)
	case phase > r.phase:
		r.buf = append(r.buf, ebaView{from: from, phase: phase, decided: decided, t: t, sets: *sets})
	}
}

// fold merges a view of this phase, or adopts it (copy-on-write) if
// decided.
func (r *EBARound) fold(from int, decided bool, t []uint64, sets *[maxEBASets][]uint64) {
	r.heard[from] = true
	if decided {
		r.tNew.AdoptShared(t)
		for i := range r.nsets {
			r.sets[i].cur.AdoptShared(sets[i])
		}
		r.decided = true
		return
	}
	if r.decided {
		return
	}
	r.tNew.Union(t)
	for i := range r.nsets {
		if s := &r.sets[i]; s.intersect {
			s.cur.Intersect(sets[i])
		} else {
			s.cur.Union(sets[i])
		}
	}
}

// Close ends the round: past the grace round U drops everyone not heard,
// and a stable U decides. It reports whether the process decided.
func (r *EBARound) Close() bool {
	if !r.decided && r.ctr >= 1 {
		r.uPrev.ForEach(func(i int) {
			if i != r.j && !r.heard[i] {
				r.u.Remove(i)
			}
		})
		r.decided = r.u.Equal(r.uPrev)
	}
	if !r.decided {
		r.ctr++
	}
	return r.decided
}

// Adopt makes the decided sets the agreed ones.
func (r *EBARound) Adopt() {
	r.t, r.tNew = r.tNew, r.t
	for i := range r.nsets {
		r.sets[i].agreed, r.sets[i].cur = r.sets[i].cur, r.sets[i].agreed
	}
	if !r.t.Has(r.j) { // a process always hears itself
		panic(fmt.Sprintf("core: agreement: correct process %d dropped from T", r.j))
	}
}

// Publish freezes the view in flight into the arena (see viewArena).
func (r *EBARound) Publish() (phase int, t []uint64, sets [maxEBASets][]uint64) {
	for i := range r.nsets {
		sets[i] = r.arena.snap(r.sets[i].cur.Words())
	}
	return r.phase, r.arena.snap(r.tNew.Words()), sets
}

// Broadcast sends payload to every other member of U as one record (an
// empty recipient list still takes the round).
func (r *EBARound) Broadcast(p *sim.Proc, payload any) sim.Yield {
	r.rcpts = r.u.AppendMembers(r.rcpts[:0])
	return broadcastYield(p, r.rcpts, payload)
}

// Checkpoint copies the round for a crash-recovery checkpoint, sharing
// the buffered views' frozen words and the append-only arena.
func (r *EBARound) Checkpoint() EBARound {
	cp := *r
	cp.t, cp.tNew, cp.u = r.t.Clone(), r.tNew.Clone(), r.u.Clone()
	for i := range r.nsets {
		cp.sets[i].agreed, cp.sets[i].cur = r.sets[i].agreed.Clone(), r.sets[i].cur.Clone()
	}
	cp.buf = slices.Clone(r.buf)
	cp.uPrev, cp.heard, cp.rcpts = nil, nil, nil // per-round scratch, dead between steps
	return cp
}

// RestoreFrom rewinds the round to cp in its own sets and scratch, leaving
// cp intact for the next restore.
func (r *EBARound) RestoreFrom(cp *EBARound) {
	own := *r
	*r = *cp
	r.t, r.tNew, r.u, r.uPrev = own.t, own.tNew, own.u, own.uPrev
	r.t.CopyFrom(cp.t)
	r.tNew.CopyFrom(cp.tNew)
	r.u.CopyFrom(cp.u)
	for i := range r.nsets {
		s := &r.sets[i]
		s.agreed, s.cur = own.sets[i].agreed, own.sets[i].cur
		s.agreed.CopyFrom(cp.sets[i].agreed)
		s.cur.CopyFrom(cp.sets[i].cur)
	}
	clear(own.buf)
	r.buf = append(own.buf[:0], cp.buf...)
	r.heard, r.rcpts = own.heard, own.rcpts[:0]
}

// EBABuilder carves a protocol builder's rounds from slabs (see slab.go).
type EBABuilder struct {
	batcher
	spec   [maxEBASets]EBASet
	nspec  int
	sets   []bitset.Set
	words  []uint64
	heard  []bool
	rcpts  []int
	arenas []viewArena
	pub    publishSources
}

// NewEBABuilder returns a builder of rounds over t processes.
func NewEBABuilder(t int, spec ...EBASet) *EBABuilder {
	b := &EBABuilder{batcher: batcher{t: t}}
	if b.nspec = copy(b.spec[:], spec); b.nspec < len(spec) {
		panic(fmt.Sprintf("core: %d payload sets, at most %d", len(spec), maxEBASets))
	}
	return b
}

// set carves a set over 0..size-1 and its words.
func (b *EBABuilder) set(size int, full bool) *bitset.Set {
	s := &carve(&b.sets, 1)[0]
	*s = bitset.Over(carve(&b.words, setWords(size)), size, full)
	return s
}

// Round carves process j's round, T full.
func (b *EBABuilder) Round(j int) EBARound {
	t := b.t
	b.mu.Lock()
	defer b.mu.Unlock()
	if k := b.next(); k > 0 {
		words := 4 * setWords(t)
		for _, s := range b.spec[:b.nspec] {
			words += 2 * setWords(s.Size)
		}
		b.sets = make([]bitset.Set, k*(4+2*b.nspec))
		b.words = make([]uint64, k*words)
		b.heard = make([]bool, k*t)
		b.rcpts = make([]int, k*t)
		b.arenas = make([]viewArena, k)
	}
	r := EBARound{
		j: j, nsets: b.nspec,
		t: b.set(t, true), tNew: b.set(t, false), u: b.set(t, false), uPrev: b.set(t, false),
		heard: carve(&b.heard, t), rcpts: carve(&b.rcpts, t)[:0],
		arena: &carve(&b.arenas, 1)[0],
	}
	r.arena.src = &b.pub
	for i, s := range b.spec[:b.nspec] {
		r.sets[i] = ebaSet{agreed: b.set(s.Size, s.Intersect), cur: b.set(s.Size, false), intersect: s.Intersect}
	}
	return r
}
