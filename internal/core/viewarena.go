package core

import "repro/internal/arena"

// viewArena is a machine's publish arena (see package arena): the words of
// every EBARound's view with D's DView boxes, and gossip's Rumor boxes with
// their done words. Under the broadcast record plane one payload serves
// every recipient, but it needs a frozen copy of the sender's words, which
// mutate next round. Copying them into the arena at publish time keeps the
// live sets unshared, so they mutate in place and a broadcast allocates
// nothing of its own. The arena's slabs are cut from the sources its
// builder shares among all its machines, so a run allocates a few source
// slabs per payload kind instead of a few slabs per machine.
//
// Published entries are immutable for the machine's lifetime, which is what
// lets recipients hold the payloads and AdoptShared the words without
// copying. An arena lives beside its machine, not inside it: the builder
// carves it from its slabs (an EBABuilder's arenas, a gossipBox), and the
// machine holds a pointer, so a checkpoint's struct copy shares the arena
// instead of forking its slab headers (the clone and the original may both
// keep bumping; neither can overwrite what the other published).
type viewArena struct {
	src    *publishSources
	words  []uint64
	views  []DView
	rumors []Rumor
}

// publishSources is a builder's slab sources, shared by the arenas of all
// its machines. A builder holds it by value: its source slabs are allocated
// at the first publish, not at build.
type publishSources struct {
	words  arena.Source[uint64]
	views  arena.Source[DView]
	rumors arena.Source[Rumor]
}

// snap returns a frozen copy of src.
func (a *viewArena) snap(src []uint64) []uint64 { return arena.Copy(&a.words, &a.src.words, src) }

// view returns a zero DView box.
func (a *viewArena) view() *DView { return arena.New(&a.views, &a.src.views) }

// rumor returns a Rumor box holding a frozen copy of done.
func (a *viewArena) rumor(done []uint64) *Rumor {
	r := arena.New(&a.rumors, &a.src.rumors)
	r.Done = a.snap(done)
	return r
}
