package core

import "testing"

// refShuffle is the Fisher–Yates over []int that gossip drew its orders
// with before they became []int32: the reference the machines must match
// bit for bit.
func refShuffle(vals []int, seed uint64) {
	s := seed
	for i := len(vals) - 1; i > 0; i-- {
		j := int(splitmix64(&s) % uint64(i+1))
		vals[i], vals[j] = vals[j], vals[i]
	}
}

// refOrders draws process id's unit order and peer rotation as gossip did
// over []int.
func refOrders(pl gossipPlan, id int) (perm, peers []int) {
	perm = make([]int, pl.n)
	for i := range perm {
		perm[i] = i + 1
	}
	refShuffle(perm, gossipSeed(pl.seed, id, 0x776f726b))
	for p := 0; p < pl.t; p++ {
		if p != id {
			peers = append(peers, p)
		}
	}
	refShuffle(peers, gossipSeed(pl.seed, id, 0x70656572))
	return perm, peers
}

func sameOrder(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// TestGossipOrdersMatchIntDraw: every machine's unit order and peer
// rotation, drawn into one []int32 row, is the []int draw's, so the
// narrower row changes no run.
func TestGossipOrdersMatchIntDraw(t *testing.T) {
	for _, cfg := range []GossipConfig{
		{N: 24, T: 6},
		{N: 0, T: 3},
		{N: 5, T: 1},
		{N: 7, T: 2, Seed: -3},
		{N: 100, T: 16, Seed: 42, Fanout: 40}, // fanout clamped to t-1
		{N: 2048, T: 64, Seed: 1},
	} {
		pl, err := planGossip(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steppers, err := GossipSteppers(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < pl.t; id++ {
			m := steppers(id).(*gossipMachine)
			wantPerm, wantPeers := refOrders(pl, id)
			if !sameOrder(m.perm, wantPerm) || !sameOrder(m.peers, wantPeers) {
				t.Fatalf("%+v, process %d: orders differ from the []int draw:\nperm  %v\nwant  %v\npeers %v\nwant  %v",
					cfg, id, m.perm, wantPerm, m.peers, wantPeers)
			}
		}
	}
}
