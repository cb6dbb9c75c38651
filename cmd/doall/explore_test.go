package main

import (
	"strings"
	"testing"

	"repro/internal/explore"
)

// TestSearchLivePlane pins the cross-plane search validation: the worst
// schedule found on the simulator replays identically on the live
// concurrent plane, for a protocol with real message traffic, and an
// unknown plane is refused.
func TestSearchLivePlane(t *testing.T) {
	out := captureStdout(t, func() error {
		return runExplore([]string{"-mode", "search", "-protocol", "b", "-n", "8", "-t", "3",
			"-crashes", "2", "-seed", "7", "-budget", "400", "-plane", "live"})
	})
	if !strings.Contains(out, "live plane:     MATCHES") || !strings.Contains(out, "violations:     0\n") {
		t.Fatalf("live validation failed:\n%s", out)
	}
	err := runExplore([]string{"-mode", "search", "-protocol", "b", "-budget", "50", "-plane", "nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown plane "nope"`) {
		t.Fatalf("unknown plane: %v", err)
	}
}

// TestReplayLiveCountsDivergence pins that a live replay that does not
// reproduce the engine's Result is a violation, so `doall explore` fails:
// a round cap the worst schedule cannot finish under errors the live run.
func TestReplayLiveCountsDivergence(t *testing.T) {
	target, err := explore.NewTarget("b", 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := target.Search(explore.SearchOptions{Seed: 7, Budget: 50})
	if err != nil {
		t.Fatal(err)
	}
	target.MaxRound = 1
	verdict, err := replayLive(target, &sr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(verdict, "DIVERGES") || sr.ViolationCount == 0 {
		t.Fatalf("verdict %q with %d violations", verdict, sr.ViolationCount)
	}
}
