package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// Fuzzing the copy-on-write machinery: arbitrary interleavings of mutators
// and merges with AdoptShared / CopyFrom across two sets, checked against a
// plain-copy oracle. A published view is a frozen copy of a set's words, as
// an agreement round's arena makes; adopting one shares it with the set.
// Two invariants are enforced after every operation:
//
//  1. each set's contents equal its oracle's (membership, count, members
//     order, Select and Next), and Count equals a fresh recount of the
//     words — the merges count as they write, so this pins the fused count;
//  2. every previously published view is frozen: the words a holder
//     received keep the exact values they had at publish time, no matter
//     how either set that adopted them mutates afterwards.

const fuzzDomain = 77 // deliberately not a multiple of 64: padding bits exist

// oracle is the reference implementation: a plain bool slice, copied
// eagerly where Set copies lazily.
type oracle []bool

func (o oracle) count() int {
	n := 0
	for _, b := range o {
		if b {
			n++
		}
	}
	return n
}

func (o oracle) words() []uint64 {
	w := make([]uint64, (len(o)+63)/64)
	for i, b := range o {
		if b {
			w[i>>6] |= 1 << (i & 63)
		}
	}
	return w
}

type frozenView struct {
	view []uint64 // what the holder received
	want []uint64 // its contents at publish time
}

func checkFrozen(t *testing.T, views []frozenView, step int) {
	t.Helper()
	for vi, fv := range views {
		for i := range fv.want {
			if fv.view[i] != fv.want[i] {
				t.Fatalf("step %d: published view %d mutated: word %d = %#x, frozen %#x",
					step, vi, i, fv.view[i], fv.want[i])
			}
		}
	}
}

func checkMatches(t *testing.T, s *Set, o oracle, step int, name string) {
	t.Helper()
	if s.Count() != o.count() {
		t.Fatalf("step %d: %s.Count() = %d, oracle %d", step, name, s.Count(), o.count())
	}
	for i := 0; i < fuzzDomain; i++ {
		if s.Has(i) != o[i] {
			t.Fatalf("step %d: %s.Has(%d) = %v, oracle %v", step, name, i, s.Has(i), o[i])
		}
	}
	want := o.words()
	for i, w := range s.Words() {
		if w != want[i] {
			t.Fatalf("step %d: %s word %d = %#x, oracle %#x (padding corruption?)",
				step, name, i, w, want[i])
		}
	}
	fresh := 0
	for _, w := range s.Words() {
		fresh += bits.OnesCount64(w)
	}
	if s.Count() != fresh {
		t.Fatalf("step %d: %s.Count() = %d, a fresh recount %d", step, name, s.Count(), fresh)
	}
	checkSelectNext(t, s, fmt.Sprintf("step %d: %s", step, name))
}

// checkSelectNext compares Select(k) and Next(i) with Members() for every k
// from -1 past the count and every i from -1 to a word past the domain.
func checkSelectNext(t *testing.T, s *Set, where string) {
	t.Helper()
	members := s.Members()
	for k := -1; k <= len(members)+1; k++ {
		want := -1
		if k >= 0 && k < len(members) {
			want = members[k]
		}
		if got := s.Select(k); got != want {
			t.Fatalf("%s: Select(%d) = %d, want %d (members %v)", where, k, got, want, members)
		}
	}
	for i := -1; i <= s.size+64; i++ {
		want := -1
		for _, m := range members {
			if m >= i {
				want = m
				break
			}
		}
		if got := s.Next(i); got != want {
			t.Fatalf("%s: Next(%d) = %d, want %d (members %v)", where, i, got, want, members)
		}
	}
}

func FuzzCOWSnapshots(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 3, 0, 0, 5, 1, 5})                      // add, share, remove the shared bit
	f.Add([]byte{0, 76, 3, 0, 4, 0, 1, 76, 2, 0})              // boundary bit, share, adopt, remove, clear
	f.Add([]byte{0, 1, 128 + 0, 2, 5, 0, 128 + 3, 0, 6, 0})    // both sets, cross copy
	f.Add([]byte{0, 10, 3, 0, 128 + 4, 0, 128 + 0, 11, 5, 10}) // share A, adopt into B, diverge
	f.Add([]byte{7, 0, 3, 0, 6, 0, 0, 1, 128 + 6, 0})          // adopt-then-copy interleavings
	f.Add([]byte{0, 3, 0, 70, 128 + 0, 70, 8, 0, 9, 1, 10, 0}) // merges over both word lengths
	f.Add([]byte{128 + 0, 76, 4, 0, 8, 1, 9, 0, 10, 1, 3, 0})  // merges into adopted words

	f.Fuzz(func(t *testing.T, data []byte) {
		sets := [2]*Set{New(fuzzDomain, false), New(fuzzDomain, false)}
		oracles := [2]oracle{make(oracle, fuzzDomain), make(oracle, fuzzDomain)}
		var views []frozenView

		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step], int(data[step+1])
			si := 0
			if op >= 128 {
				si, op = 1, op-128
			}
			s, o := sets[si], oracles[si]
			other, otherO := sets[1-si], oracles[1-si]
			switch op % 11 {
			case 0:
				s.Add(arg % fuzzDomain)
				o[arg%fuzzDomain] = true
			case 1:
				s.Remove(arg % fuzzDomain)
				o[arg%fuzzDomain] = false
			case 2:
				s.Clear()
				for i := range o {
					o[i] = false
				}
			case 3:
				// Publish a view of the set, adopt it back and remember its
				// frozen contents.
				v := slices.Clone(s.Words())
				s.AdoptShared(v)
				views = append(views, frozenView{view: v, want: slices.Clone(v)})
			case 4:
				// Both sets adopt the other set's published view: they now
				// reference the same words, COW-protected on both sides.
				v := slices.Clone(other.Words())
				other.AdoptShared(v)
				s.AdoptShared(v)
				views = append(views, frozenView{view: v, want: slices.Clone(v)})
				copy(o, otherO)
			case 5:
				// Adopt raw words with dirty padding bits: the masked-copy
				// fallback path.
				w := o.words()
				if len(w) > 0 {
					pad := uint(fuzzDomain % 64)
					w[len(w)-1] |= ^uint64(0) << pad
					w[0] |= uint64(arg)
				}
				s.AdoptShared(w)
				for i := 0; i < 64 && i < fuzzDomain; i++ {
					if uint64(arg)>>(i&63)&1 == 1 {
						o[i] = true
					}
				}
			case 6:
				s.CopyFrom(other)
				copy(o, otherO)
			case 7:
				// Adopt a short view (length mismatch): fallback copy, bits
				// beyond the words cleared.
				s.AdoptShared([]uint64{uint64(arg)})
				for i := range o {
					o[i] = i < 64 && uint64(arg)>>(i&63)&1 == 1
				}
			case 8:
				// Intersect the other set's words, or only its first word
				// (words beyond a short slice count as empty).
				short := arg&1 == 1
				if short {
					s.Intersect(other.Words()[:1])
				} else {
					s.Intersect(other.Words())
				}
				for i := range o {
					o[i] = o[i] && otherO[i] && (!short || i < 64)
				}
			case 9:
				// Union the other set's words, or a longer copy with dirty
				// padding bits, which must not enter the set.
				w := other.Words()
				if arg&1 == 1 {
					pad := uint(fuzzDomain % 64)
					w = append(append([]uint64(nil), w...), ^uint64(0))
					w[len(w)-2] |= ^uint64(0) << pad
				}
				s.Union(w)
				for i := range o {
					o[i] = o[i] || otherO[i]
				}
			case 10:
				// Subtract the other set's words, or only its first word
				// (words beyond a short slice are untouched).
				short := arg&1 == 1
				if short {
					s.Subtract(other.Words()[:1])
				} else {
					s.Subtract(other.Words())
				}
				for i := range o {
					o[i] = o[i] && !(otherO[i] && (!short || i < 64))
				}
			}
			checkMatches(t, sets[0], oracles[0], step, "A")
			checkMatches(t, sets[1], oracles[1], step, "B")
			checkFrozen(t, views, step)
		}
	})
}

// TestSelectNextMatchMembers holds Select and Next to Members over random,
// empty and full sets whose domains end inside, on and just past a word
// boundary.
func TestSelectNextMatchMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		sets := []*Set{New(size, false), New(size, true)}
		for _, p := range []float64{0.02, 0.5, 0.98} {
			s := New(size, false)
			for i := 0; i < size; i++ {
				if rng.Float64() < p {
					s.Add(i)
				}
			}
			sets = append(sets, s)
		}
		for i, s := range sets {
			checkSelectNext(t, s, fmt.Sprintf("size %d, set %d", size, i))
		}
	}
}
