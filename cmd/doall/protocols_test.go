package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/explore"
)

// TestProtocolHelpListsAcceptedNames holds each -protocol help text to the
// names its subcommands accept: every listed name resolves, and every table
// name that resolves is listed. run's names resolve to the doall.Protocol
// of the same entry, and explore, which resolves through
// explore.NewTarget, shares the live planes' list.
func TestProtocolHelpListsAcceptedNames(t *testing.T) {
	listed := func(ps []core.Protocol) map[string]bool {
		out := map[string]bool{}
		for _, name := range strings.Split(strings.TrimPrefix(protocolUsage(ps), "protocol: "), "|") {
			out[name] = true
		}
		return out
	}
	runs, planes := listed(runProtocols), listed(planeProtocols)
	for _, p := range core.Protocols {
		proto, err := runProtocol(strings.ToUpper(p.Name))
		if (err == nil) != runs[p.Name] {
			t.Errorf("run/sweep: %q listed %v, resolves with %v", p.Name, runs[p.Name], err)
		}
		if err == nil {
			if proto.String() != p.Title {
				t.Errorf("run: %q resolves to %v, want %s", p.Name, proto, p.Title)
			}
			if _, err := doall.Run(doall.Config{Units: 8, Workers: 3, Protocol: proto, CheckpointK: 2}); err != nil {
				t.Errorf("run: %q does not run: %v", p.Name, err)
			}
		}
		_, _, err = lookupProtocol(planeProtocols, strings.ToUpper(p.Name))
		if (err == nil) != planes[p.Name] {
			t.Errorf("live/serve/join: %q listed %v, resolves with %v", p.Name, planes[p.Name], err)
		}
		if _, err := explore.NewTarget(p.Name, 8, 3, 2); (err == nil) != planes[p.Name] {
			t.Errorf("explore: %q listed %v, NewTarget gives %v", p.Name, planes[p.Name], err)
		}
	}
	if len(runs) != int(doall.Gossip) || len(planes) != len(core.Protocols)-1 {
		t.Errorf("listed %d run and %d plane names", len(runs), len(planes))
	}
	if _, err := runProtocol("nope"); err == nil || err.Error() != `unknown protocol "nope"` {
		t.Errorf("unknown run name: %v", err)
	}
}

// TestLiveGossipCapRunsCapped pins that live -protocol gossip-cap runs under
// the cap explore certifies it at (2 at t = 8), not uncapped: its output
// equals gossip's at -bandwidth 2 but for the protocol line, and -compare
// holds for both.
func TestLiveGossipCapRunsCapped(t *testing.T) {
	grid := []string{"-units", "64", "-workers", "8", "-compare"}
	capped := captureStdout(t, func() error {
		return runLive(append([]string{"-protocol", "gossip-cap"}, grid...))
	})
	explicit := captureStdout(t, func() error {
		return runLive(append([]string{"-protocol", "gossip", "-bandwidth", "2"}, grid...))
	})
	if !strings.Contains(capped, "deferred:") {
		t.Fatalf("gossip-cap deferred no sends:\n%s", capped)
	}
	got, want := strings.Split(capped, "\n"), strings.Split(explicit, "\n")
	if len(got) != len(want) {
		t.Fatalf("outputs differ in length:\n%s\n---\n%s", capped, explicit)
	}
	for i := range got {
		if got[i] != want[i] && !strings.HasPrefix(got[i], "protocol:") {
			t.Errorf("line %d: gossip-cap %q, gossip -bandwidth 2 %q", i+1, got[i], want[i])
		}
	}
}

// captureStdout returns what run prints to os.Stdout.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run()
	os.Stdout = stdout
	w.Close()
	text := <-out
	if runErr != nil {
		t.Fatalf("%v\n%s", runErr, text)
	}
	return text
}
