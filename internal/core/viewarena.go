package core

// viewArena bump-allocates the frozen payloads a machine broadcasts: the
// words of every EBARound's view with D's DView boxes, and gossip's Rumor
// boxes with their done words. Under the broadcast record plane one
// payload serves every recipient, but it needs a frozen copy of the
// sender's words, which mutate next round. Copying them into a slab at
// publish time keeps the live sets unshared, so they mutate in place and
// a broadcast allocates nothing of its own.
//
// Discipline: slabs are append-only and never reset or reused — when one
// fills, it is abandoned to its published holders and a fresh slab starts
// (see slabCap). Published entries are therefore immutable for the
// machine's lifetime, which is what lets recipients hold the payloads and
// AdoptShared the words without copying, and what makes sharing one arena
// across crash-recovery snapshots safe (the clone and the original may
// both keep bumping; neither can overwrite what the other published).
//
// An arena lives beside its machine, not inside it: the builder carves it
// from its slabs (an EBABuilder's arenas, a gossipBox), and the machine
// holds a pointer, so a checkpoint's struct copy shares the arena instead
// of forking its slab headers.
type viewArena struct {
	words  []uint64
	views  []DView
	rumors []Rumor
}

// snap copies src into the words slab and returns the frozen copy, capacity
// -clamped so append on the caller's side can never bleed into later
// entries.
func (a *viewArena) snap(src []uint64) []uint64 {
	n := len(src)
	if cap(a.words)-len(a.words) < n {
		a.words = make([]uint64, 0, slabCap(cap(a.words), n, 512))
	}
	off := len(a.words)
	a.words = a.words[:off+n]
	dst := a.words[off : off+n : off+n]
	copy(dst, src)
	return dst
}

// rumor returns a Rumor box from the rumors slab holding a frozen copy of
// done.
func (a *viewArena) rumor(done []uint64) *Rumor {
	r := Box(&a.rumors)
	r.Done = a.snap(done)
	return r
}

// Box returns a fresh box from an append-only slab of payload boxes (a
// full slab is abandoned, never reused): D's views, gossip's rumors and
// dynamic work's views. Like the arena, a slab lives outside its machine.
func Box[T any](slab *[]T) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, slabCap(cap(*slab), 1, 64))
	}
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// slabCap is the capacity of the slab replacing a full one of capacity old,
// for entries of size n: room for 8 entries at first, doubling up to limit
// (never less than one entry), so a short run pays for the few entries it
// publishes and a long one for few slabs.
func slabCap(old, n, limit int) int { return max(n, min(limit, max(8*n, 2*old))) }
