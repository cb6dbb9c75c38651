package core

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

func gossipGrids() []struct{ n, t int } {
	return []struct{ n, t int }{{1, 1}, {8, 3}, {16, 4}, {24, 8}, {30, 7}, {144, 12}, {200, 16}}
}

// TestGossipBounds checks completion and the registered CGKS-style bounds
// (work, messages, rounds) across grids under the grid adversary zoo.
func TestGossipBounds(t *testing.T) {
	for _, g := range gossipGrids() {
		for advName, mkAdv := range GridAdversaries(g.n, g.t) {
			t.Run(fmt.Sprintf("n=%d,t=%d/%s", g.n, g.t, advName), func(t *testing.T) {
				pr, err := GossipProcs(GossipConfig{N: g.n, T: g.t})
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunProcs(g.n, g.t, pr, RunOptions{Adversary: mkAdv()})
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckCompletion(res); err != nil {
					t.Fatal(err)
				}
				f := g.t - 1
				checkGossipBounds(t, res, g.n, g.t, f, 0)
			})
		}
	}
}

func checkGossipBounds(t *testing.T, res sim.Result, n, tt, f, lag int) {
	t.Helper()
	if w := GossipWorkBound(n, tt, f, lag); res.WorkTotal > w {
		t.Errorf("work %d exceeds bound %d", res.WorkTotal, w)
	}
	if m := GossipMessageBound(n, tt, f, lag); res.Messages > m {
		t.Errorf("messages %d exceed bound %d", res.Messages, m)
	}
	if r := GossipRoundBound(n, tt, f, lag); res.Rounds > r {
		t.Errorf("rounds %d exceed bound %d", res.Rounds, r)
	}
}

// TestGossipBandwidthCap runs gossip under the congested-clique cap of half
// the fanout and checks that completion and the lag-1 bounds hold, and that
// the cap actually binds (rumors get deferred) once the fanout exceeds it.
func TestGossipBandwidthCap(t *testing.T) {
	for _, g := range gossipGrids() {
		d := GossipFanout(g.t)
		cap := max(1, (d+1)/2)
		for advName, mkAdv := range GridAdversaries(g.n, g.t) {
			t.Run(fmt.Sprintf("n=%d,t=%d/%s", g.n, g.t, advName), func(t *testing.T) {
				pr, err := GossipProcs(GossipConfig{N: g.n, T: g.t})
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunProcs(g.n, g.t, pr, RunOptions{Adversary: mkAdv(), Bandwidth: cap})
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckCompletion(res); err != nil {
					t.Fatal(err)
				}
				checkGossipBounds(t, res, g.n, g.t, g.t-1, 1)
				if d > cap && res.Deferred == 0 {
					t.Errorf("fanout %d over cap %d should defer rumors", d, cap)
				}
			})
		}
	}
}

// TestGossipPoisonedRestart pins the Snapshot semantics that make restarts
// sound: a KeepWork=false crash at a work action discards the unit, and the
// crash-time checkpoint must not remember it as done — otherwise the
// restarted process gossips a unit nobody performed and survivors terminate
// incomplete. Work rounds are a process's odd-numbered actions (epochs are
// work-then-gossip pairs), so AtAction 3 lands on the second work round.
func TestGossipPoisonedRestart(t *testing.T) {
	n, tt := 24, 4
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("keepwork=%v", keep), func(t *testing.T) {
			pr, err := GossipProcs(GossipConfig{N: n, T: tt})
			if err != nil {
				t.Fatal(err)
			}
			adv := adversary.NewSchedule(adversary.Crash{
				PID: 1, AtAction: 3, KeepWork: keep, RestartAt: 9,
			})
			res, err := RunProcs(n, tt, pr, RunOptions{Adversary: adv})
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1", res.Restarts)
			}
			if err := CheckCompletion(res); err != nil {
				t.Fatal(err)
			}
			if res.Survivors != tt {
				t.Fatalf("survivors = %d, want %d (restarted process rejoins)", res.Survivors, tt)
			}
			// A process never repeats a unit it confirmed: per-process work
			// stays within n plus one retry per restart.
			for pid, p := range res.PerProc {
				if p.Work > int64(n)+p.Restarts {
					t.Errorf("proc %d work %d exceeds n+restarts %d", pid, p.Work, int64(n)+p.Restarts)
				}
			}
		})
	}
}

// TestGossipConfigValidation pins the builder error surface.
func TestGossipConfigValidation(t *testing.T) {
	for _, cfg := range []GossipConfig{{N: 5, T: 0}, {N: -1, T: 3}, {N: 5, T: 3, Fanout: -1}} {
		if _, err := GossipProcs(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}
