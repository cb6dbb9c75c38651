package main

// Multi-process cluster tests: real OS processes, real sockets, real
// signals. The joins are this test binary re-executed in helper mode
// (TestHelperProcess), so `go test` needs no pre-built doall on PATH. The
// serve side runs in-test through the live API to get at the Result the
// subcommand would only print.

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// TestHelperProcess is not a test: re-executed with DOALL_HELPER set, it
// becomes a doall subcommand for the cluster tests to spawn and signal.
func TestHelperProcess(t *testing.T) {
	role := os.Getenv("DOALL_HELPER")
	if role == "" {
		return
	}
	var err error
	switch role {
	case "join":
		err = runJoin(strings.Fields(os.Getenv("DOALL_HELPER_ARGS")))
	default:
		err = fmt.Errorf("unknown helper role %q", role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnJoin starts one join OS process against addr and arranges for its
// corpse to be collected however the test ends.
func spawnJoin(t *testing.T, addr string, extraArgs string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(),
		"DOALL_HELPER=join",
		"DOALL_HELPER_ARGS=-connect "+addr+" "+extraArgs)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn join: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// clusterEngineRef runs the engine reference for a cluster configuration,
// resolving the protocol exactly as runServe does.
func clusterEngineRef(t *testing.T, protocol string, n, tt int, adv sim.Adversary) sim.Result {
	t.Helper()
	opt, err := newPlaneOptions(protocol, n, tt, 0, func() sim.Adversary { return adv })
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSimPlane(opt, nil)
	if err != nil {
		t.Fatalf("engine reference: %v", err)
	}
	return res
}

// TestClusterProcessSIGKILL sends a real SIGKILL to one of two join
// processes mid-run: the serve side must book the vanished join's whole PID
// range as crashes, and the cluster Result must equal the engine's for the
// equivalent explore.Vector crash schedule — process death is just another
// point in the certified fault space.
func TestClusterProcessSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const protocol, n, tt = "b", 24, 6
	wt, err := live.NewWireTransport(live.WireOptions{
		Network: "tcp", Addr: "127.0.0.1:0", Joins: 2,
		Spec: live.WireSpec{Protocol: protocol, Units: n, Workers: tt,
			// The latency stretches the run so the kill lands mid-flight.
			Latency: live.Latency{Base: 3 * time.Millisecond, Seed: 5}},
		Grace: 400 * time.Millisecond, ReadyTimeout: 30 * time.Second,
		RTO: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	survivor := spawnJoin(t, wt.Addr(), "-reconnect-grace 10s")
	victim := spawnJoin(t, wt.Addr(), "-reconnect-grace 10s")
	if err := wt.WaitReady(); err != nil {
		t.Fatal(err)
	}
	type runOut struct {
		res sim.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := live.Run(live.Config{
			NumProcs: tt, NumUnits: n, MaxActive: 1, DetailedMetrics: true, Transport: wt,
		}, nil)
		done <- runOut{res, err}
	}()
	time.Sleep(25 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("cluster run: %v", out.err)
	}
	if err := survivor.Wait(); err != nil {
		t.Errorf("surviving join exited with: %v", err)
	}

	// The victim's PID range — whichever of the two it was assigned — must
	// be exactly the crashed set.
	res := out.res
	if res.Crashes != tt/2 {
		t.Fatalf("crashes = %d, want %d (one join's PID range)", res.Crashes, tt/2)
	}
	var vec explore.Vector
	crashedLo := -1
	for pid := range res.PerProc {
		if res.PerProc[pid].Status != sim.StatusCrashed {
			continue
		}
		if crashedLo == -1 {
			crashedLo = pid
		}
		vec = append(vec, explore.Choice{Victim: pid, Round: res.PerProc[pid].RetireRound})
	}
	if crashedLo != 0 && crashedLo != tt/2 {
		t.Fatalf("crashed PIDs %v do not form one join's range", vec)
	}
	for i, c := range vec {
		if c.Victim != crashedLo+i {
			t.Fatalf("crashed PIDs %v are not contiguous from %d", vec, crashedLo)
		}
	}
	if err := vec.Validate(); err != nil {
		t.Fatalf("reconstructed vector: %v", err)
	}
	want := clusterEngineRef(t, protocol, n, tt, vec.Adversary())
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("SIGKILL-equivalent schedule diverges:\nsim:     %+v\ncluster: %+v", want, res)
	}
}

// TestClusterProcessSoak cycles a few full multi-process cluster runs —
// varying protocol, join count and chaos — each checked against the engine.
// Bounded small: it is the cross-process smoke the in-process soak
// (internal/live) cannot provide.
func TestClusterProcessSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	cases := []struct {
		protocol string
		n, tt    int
		joins    int
		chaos    string
	}{
		{"b", 24, 6, 2, ""},
		{"d", 16, 4, 3, "-chaos-drop 0.15 -chaos-seed 7"},
		{"c", 16, 4, 2, "-chaos-drop 0.1 -chaos-dup 0.1 -chaos-reorder 0.1 -chaos-seed 3"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/j%d", tc.protocol, tc.joins), func(t *testing.T) {
			opt, err := newPlaneOptions(tc.protocol, tc.n, tc.tt, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := live.NewWireTransport(live.WireOptions{
				Network: "tcp", Addr: "127.0.0.1:0", Joins: tc.joins,
				Spec:  live.WireSpec{Protocol: tc.protocol, Units: tc.n, Workers: tc.tt},
				Grace: 10 * time.Second, ReadyTimeout: 30 * time.Second,
				RTO: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			joins := make([]*exec.Cmd, tc.joins)
			for i := range joins {
				joins[i] = spawnJoin(t, wt.Addr(), "-reconnect-grace 10s "+tc.chaos)
			}
			if err := wt.WaitReady(); err != nil {
				t.Fatal(err)
			}
			res, err := live.Run(live.Config{
				NumProcs: tc.tt, NumUnits: tc.n, MaxActive: opt.maxActive,
				DetailedMetrics: true, Transport: wt,
			}, nil)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			for i, j := range joins {
				if err := j.Wait(); err != nil {
					t.Errorf("join %d exited with: %v", i, err)
				}
			}
			want := clusterEngineRef(t, tc.protocol, tc.n, tc.tt, nil)
			if !reflect.DeepEqual(want, res) {
				t.Fatalf("cluster diverges from engine:\nsim:     %+v\ncluster: %+v", want, res)
			}
		})
	}
}
