package core

import (
	"encoding/binary"
	"testing"
)

// checkOrderBijection fails unless o maps positions 0..n-1 onto units 1..n
// one to one.
func checkOrderBijection(t *testing.T, o *gossipOrder, n int) {
	t.Helper()
	seen := make([]bool, n+1)
	for i := 0; i < n; i++ {
		u := o.at(i)
		if u < 1 || u > n || seen[u] {
			t.Fatalf("n=%d: position %d maps to unit %d (out of range or repeated)", n, i, u)
		}
		seen[u] = true
	}
}

// drainOrder walks m's unit order as a failure-free process would, marking
// each handed-out unit done, and returns the units in the order handed out.
func drainOrder(m *gossipMachine) []int {
	var got []int
	for u := m.nextUnit(); u > 0; u = m.nextUnit() {
		got = append(got, u)
		m.done.Add(u)
	}
	return got
}

// TestGossipOrderIsPermutation: every machine's unit order is a bijection of
// 1..n, deterministic in (seed, id), and a Snapshot/Restore mid-run resumes
// the walk at the position it was checkpointed at.
func TestGossipOrderIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 6, 7, 8, 63, 64, 65, 1000, 2048} {
		for _, seed := range []int64{0, 1, -3, 42} {
			cfg := GossipConfig{N: n, T: 5, Seed: seed}
			first, err := GossipSteppers(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, _ := GossipSteppers(cfg)
			for id := 0; id < cfg.T; id++ {
				m := first(id).(*gossipMachine)
				checkOrderBijection(t, &m.order, n)
				order := drainOrder(m)
				if len(order) != n {
					t.Fatalf("n=%d seed=%d id=%d: a failure-free walk hands out %d units", n, seed, id, len(order))
				}
				again := second(id).(*gossipMachine)
				half := n / 2
				for i := 0; i < half; i++ {
					if u := again.nextUnit(); u != order[i] {
						t.Fatalf("n=%d seed=%d id=%d: rebuilt order differs at position %d: %d, want %d", n, seed, id, i, u, order[i])
					}
					again.done.Add(order[i])
				}
				snap := again.Snapshot()
				rest := drainOrder(again)
				again.Restore(snap)
				resumed := drainOrder(again)
				for i := range order[half:] {
					if rest[i] != order[half+i] || resumed[i] != order[half+i] {
						t.Fatalf("n=%d seed=%d id=%d: position %d after a checkpoint: %d, resumed %d, want %d",
							n, seed, id, half+i, rest[i], resumed[i], order[half+i])
					}
				}
			}
		}
	}
}

// FuzzGossipOrder: for any n ≤ 2^16, seed and process id, the keyed mix
// permutes its power-of-two domain — so every cycle walk below n ends — and
// the order it yields is a bijection of 1..n.
func FuzzGossipOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0})
	f.Add([]byte{0, 8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 63, 0})
	f.Add([]byte{1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [13]byte
		copy(buf[:], data)
		n := int(uint32(buf[0])<<16|uint32(buf[1])<<8|uint32(buf[2])) % (1<<16 + 1)
		seed := int64(binary.LittleEndian.Uint64(buf[3:11]))
		id := int(binary.LittleEndian.Uint16(buf[11:13]))
		o := newGossipOrder(n, gossipSeed(seed, id, 0x776f726b))
		hit := make([]bool, o.mask+1)
		for x := uint64(0); x <= o.mask; x++ {
			y := o.mix(x)
			if y > o.mask || hit[y] {
				t.Fatalf("n=%d seed=%d id=%d: mix(%d) = %d is out of [0, %d] or repeated", n, seed, id, x, y, o.mask)
			}
			hit[y] = true
		}
		checkOrderBijection(t, &o, n)
	})
}
