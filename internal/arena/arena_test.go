package arena

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// publisher copies payloads into its own slab cut from a shared source and
// holds every copy, with its contents at publication.
type publisher struct {
	slab  []uint64
	boxes []int
	held  [][]uint64
	want  [][]uint64
	box   []*int
}

func (p *publisher) publish(src *Source[uint64], boxes *Source[int], v []uint64) {
	c := Copy(&p.slab, src, v)
	if cap(c) != len(c) {
		panic(fmt.Sprintf("a copy of %d entries has capacity %d", len(c), cap(c)))
	}
	b := New(&p.boxes, boxes)
	*b = len(p.held)
	p.held, p.want, p.box = append(p.held, c), append(p.want, slices.Clone(v)), append(p.box, b)
}

func (p *publisher) check(tb testing.TB) {
	tb.Helper()
	for i, c := range p.held {
		if !slices.Equal(c, p.want[i]) || *p.box[i] != i {
			tb.Fatalf("published entry %d changed: %v (box %d), want %v", i, c, *p.box[i], p.want[i])
		}
	}
}

// payload is publication i of publisher id: its length varies, so slabs
// fill unevenly and some copies do not fit the rest of a slab.
func payload(id, i int) []uint64 {
	v := make([]uint64, 1+(i*7+id)%37)
	for k := range v {
		v[k] = uint64(id<<32 | i<<8 | k)
	}
	return v
}

// TestPublishedEntriesFrozen interleaves publishers over one source through
// many source slabs, appends to every held copy, and requires every entry
// to read as published.
func TestPublishedEntriesFrozen(t *testing.T) {
	var src Source[uint64]
	var boxes Source[int]
	if src.Slabs() != 0 {
		t.Fatalf("a zero source holds %d slabs before its first publish", src.Slabs())
	}
	pubs := make([]publisher, 5)
	for i := range 2000 {
		for id := range pubs {
			pubs[id].publish(&src, &boxes, payload(id, i))
		}
	}
	for id := range pubs {
		for _, c := range pubs[id].held {
			_ = append(c, 0xdead) // must reallocate, not write into the next entry
		}
	}
	for id := range pubs {
		pubs[id].check(t)
	}
	if src.Slabs() < 3 || boxes.Slabs() < 3 {
		t.Fatalf("%d word and %d box source slabs, want several of each", src.Slabs(), boxes.Slabs())
	}
}

// TestConcurrentPublishers publishes from several goroutines at once over
// one source, as the live plane's workers and concurrent engines do.
func TestConcurrentPublishers(t *testing.T) {
	var src Source[uint64]
	var boxes Source[int]
	pubs := make([]publisher, 8)
	var wg sync.WaitGroup
	for id := range pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1500 {
				pubs[id].publish(&src, &boxes, payload(id, i))
			}
		}()
	}
	wg.Wait()
	for id := range pubs {
		pubs[id].check(t)
	}
	if src.Slabs() < 2 {
		t.Fatalf("%d source slabs, want the publishers to roll one over", src.Slabs())
	}
}

// TestSlabGrowth pins a publisher's slab sizes: room for 8 requests at
// first, doubling up to the limit, and never less than one request.
func TestSlabGrowth(t *testing.T) {
	for _, c := range []struct{ old, n, limit, want int }{
		{0, 1, 64, 8}, {8, 1, 64, 16}, {32, 1, 64, 64}, {64, 1, 64, 64},
		{0, 17, 512, 136}, {272, 17, 512, 512}, {0, 600, 512, 600},
	} {
		if got := grow(c.old, c.n, c.limit); got != c.want {
			t.Errorf("grow(%d, %d, %d) = %d, want %d", c.old, c.n, c.limit, got, c.want)
		}
	}
}
