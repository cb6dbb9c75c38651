package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// TestProtocolTable pins the protocol table: its names are unique, every
// entry builds steppers, and every entry explore offers yields, at two instances, the
// literal bounds, flags, cap and round limit below, so a change to any
// entry's declaration shows here.
func TestProtocolTable(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range core.Protocols {
		if seen[p.Name] {
			t.Fatalf("protocol %q declared twice", p.Name)
		}
		seen[p.Name] = true
		for _, prm := range []core.Params{{K: 2}, {K: 2, RevertFactor: 3, DisableRevert: true}} {
			pr, err := p.Build(8, 3, prm)
			if err != nil {
				t.Errorf("%s: build at (8, 3) with %+v: %v", p.Name, prm, err)
			} else if pr.Steppers == nil {
				t.Errorf("%s: built no steppers with %+v", p.Name, prm)
			}
		}
	}

	type pin struct {
		name         string
		n, t, f      int
		bounds       explore.Bounds
		singleActive bool
		symmetric    bool
		bandwidth    int
		maxRound     int64
	}
	pins := []pin{
		{"a", 8, 3, 2, explore.Bounds{Work: 24, Messages: 46, Rounds: 63, Effort: 70}, true, false, 0, 252},
		{"b", 8, 3, 2, explore.Bounds{Work: 24, Messages: 51, Rounds: 60, Effort: 75}, true, false, 0, 240},
		{"c", 8, 3, 2, explore.Bounds{Work: 14, Messages: 56, Rounds: 1419264, Effort: 70}, true, false, 0, 5677056},
		{"c-lowmsg", 8, 3, 2, explore.Bounds{Work: 28, Messages: 60, Rounds: 2095104, Effort: 88}, true, false, 0, 8380416},
		{"d", 8, 3, 2, explore.Bounds{Work: 32, Messages: 106, Rounds: 82, Effort: 138}, false, false, 0, 328},
		{"trivial", 8, 3, 2, explore.Bounds{Work: 24, Messages: 0, Rounds: 0, Effort: 24}, false, true, 0, 0},
		{"single-checkpoint", 8, 3, 2, explore.Bounds{Work: 0, Messages: 0, Rounds: 0, Effort: 0}, true, false, 0, 0},
		{"naive", 8, 3, 2, explore.Bounds{Work: 0, Messages: 0, Rounds: 0, Effort: 0}, true, false, 0, 0},
		{"gossip", 8, 3, 2, explore.Bounds{Work: 26, Messages: 80, Rounds: 78, Effort: 106}, false, false, 0, 312},
		{"gossip-cap", 8, 3, 2, explore.Bounds{Work: 26, Messages: 86, Rounds: 84, Effort: 112}, false, false, 1, 336},
		{"a", 64, 16, 15, explore.Bounds{Work: 192, Messages: 576, Rounds: 1824, Effort: 768}, true, false, 0, 7296},
		{"b", 64, 16, 15, explore.Bounds{Work: 192, Messages: 640, Rounds: 415, Effort: 832}, true, false, 0, 1660},
		{"c", 64, 16, 15, explore.Bounds{Work: 96, Messages: 576, Rounds: 2305843009213693952, Effort: 672}, true, false, 0, 0},
		{"c-lowmsg", 64, 16, 15, explore.Bounds{Work: 192, Messages: 640, Rounds: 2305843009213693952, Effort: 832}, true, false, 0, 0},
		{"d", 64, 16, 15, explore.Bounds{Work: 256, Messages: 16075, Rounds: 1950, Effort: 16331}, false, false, 0, 7800},
		{"trivial", 64, 16, 15, explore.Bounds{Work: 1024, Messages: 0, Rounds: 0, Effort: 1024}, false, true, 0, 0},
		{"single-checkpoint", 64, 16, 15, explore.Bounds{Work: 0, Messages: 0, Rounds: 0, Effort: 0}, true, false, 0, 0},
		{"naive", 64, 16, 15, explore.Bounds{Work: 0, Messages: 0, Rounds: 0, Effort: 0}, true, false, 0, 0},
		{"gossip", 64, 16, 15, explore.Bounds{Work: 529, Messages: 3360, Rounds: 2272, Effort: 3889}, false, false, 0, 9088},
		{"gossip-cap", 64, 16, 15, explore.Bounds{Work: 622, Messages: 3905, Rounds: 2304, Effort: 4527}, false, false, 3, 9216},
	}
	offered := map[string]int{}
	for _, w := range pins {
		offered[w.name]++
		tg, err := explore.NewTarget(w.name, w.n, w.t, w.f)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := pin{w.name, w.n, w.t, w.f, tg.Bounds, tg.SingleActive, tg.Symmetric, tg.Bandwidth, tg.MaxRound}
		if got != w {
			t.Errorf("NewTarget(%q, %d, %d, %d):\n got %+v\nwant %+v", w.name, w.n, w.t, w.f, got, w)
		}
	}
	for _, p := range core.Protocols {
		want := 2
		if p.NeedsK {
			want = 0
		}
		if offered[p.Name] != want {
			t.Errorf("%s: %d pinned targets, want %d", p.Name, offered[p.Name], want)
		}
	}
}
