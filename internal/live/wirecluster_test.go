package live_test

// Loopback wire-cluster harness: a serve-side Plane over a WireTransport
// plus N in-process Join runtimes talking real TCP (or unix) sockets. The
// cmd-level tests re-run the same shape as separate OS processes; here the
// joins share the test process so every conformance leg can run in the
// normal test matrix (and under -race).

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/live"
	"repro/internal/sim"
)

// steppersByName resolves a protocol name exactly as a join process does,
// returning the steppers and whether the protocol claims the single-active
// invariant.
func steppersByName(protocol string, n, tt int) (func(int) sim.Stepper, bool, error) {
	tg, err := explore.NewTarget(protocol, n, tt, max(tt-1, 0))
	if err != nil {
		return nil, false, err
	}
	st, err := core.SteppersFor(tg.NewProcs())
	return st, tg.SingleActive, err
}

// wireCluster configures one loopback cluster run.
type wireCluster struct {
	protocol   string
	n, tt      int
	joins      int
	bandwidth  int    // > 0: congested-clique per-round outbound cap (serve-side)
	network    string // "tcp" (default) or "unix"
	latency    live.Latency
	serveChaos live.WireChaos
	joinChaos  live.WireChaos
	bounce     int // > 0: bounce every join's connection this many times mid-run
	delayHook  func(pid int, d time.Duration)
	serving    func(*live.WireTransport) // non-nil: handed the transport once it listens
}

// run executes the cluster and returns the serve-side Result, trace and
// error; join runtimes must all exit cleanly.
func (cc wireCluster) run(t *testing.T, mkAdv func() sim.Adversary) (sim.Result, []sim.Event, error) {
	t.Helper()
	network := cc.network
	addr := "127.0.0.1:0"
	if network == "" {
		network = "tcp"
	}
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "doall.sock")
	}
	joins := cc.joins
	if joins == 0 {
		joins = 2
	}
	_, single, err := steppersByName(cc.protocol, cc.n, cc.tt)
	if err != nil {
		t.Fatalf("protocol %q: %v", cc.protocol, err)
	}
	maxActive := 0
	if single {
		maxActive = 1
	}
	wt, err := live.NewWireTransport(live.WireOptions{
		Network: network, Addr: addr, Joins: joins,
		Spec:  live.WireSpec{Protocol: cc.protocol, Units: cc.n, Workers: cc.tt, Latency: cc.latency},
		Chaos: cc.serveChaos, Grace: 10 * time.Second, ReadyTimeout: 30 * time.Second,
		RTO: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if cc.serving != nil {
		cc.serving(wt)
	}
	joinErrs := make(chan error, joins)
	for i := 0; i < joins; i++ {
		go func() {
			joinErrs <- live.Join(live.JoinConfig{
				Network: network, Addr: wt.Addr(),
				Steppers: func(spec live.WireSpec) (func(int) sim.Stepper, error) {
					st, _, err := steppersByName(spec.Protocol, spec.Units, spec.Workers)
					return st, err
				},
				Chaos: cc.joinChaos, ReconnectGrace: 10 * time.Second,
				RTO: 5 * time.Millisecond, DelayHook: cc.delayHook,
			})
		}()
	}
	if err := wt.WaitReady(); err != nil {
		t.Fatalf("cluster ready: %v", err)
	}
	stopBounce := make(chan struct{})
	if cc.bounce > 0 {
		go func() {
			for k := 0; k < cc.bounce; k++ {
				select {
				case <-stopBounce:
					return
				case <-time.After(3 * time.Millisecond):
				}
				for i := 0; i < joins; i++ {
					wt.BounceConn(i)
				}
			}
		}()
	}
	var trace []sim.Event
	res, runErr := live.Run(live.Config{
		NumProcs: cc.tt, NumUnits: cc.n,
		Adversary: mkAdv(), MaxActive: maxActive, Bandwidth: cc.bandwidth,
		DetailedMetrics: true,
		Tracer:          func(e sim.Event) { trace = append(trace, e) },
		Transport:       wt,
	}, nil)
	close(stopBounce)
	for i := 0; i < joins; i++ {
		if jerr := <-joinErrs; jerr != nil {
			t.Errorf("join %d: %v", i, jerr)
		}
	}
	return res, trace, runErr
}

// engineReference runs the same configuration on the sim engine with a
// trace.
func engineReference(t *testing.T, protocol string, n, tt, bandwidth int, mkAdv func() sim.Adversary) (sim.Result, []sim.Event, error) {
	t.Helper()
	st, single, err := steppersByName(protocol, n, tt)
	if err != nil {
		t.Fatalf("steppers: %v", err)
	}
	maxActive := 0
	if single {
		maxActive = 1
	}
	var trace []sim.Event
	res, runErr := core.RunSteppers(n, tt, st, core.RunOptions{
		Adversary: mkAdv(), MaxActive: maxActive, Bandwidth: bandwidth,
		DetailedMetrics: true,
		Tracer:          func(e sim.Event) { trace = append(trace, e) },
	})
	return res, trace, runErr
}

// requireWireConformance runs one configuration on the engine and as a wire
// cluster and requires identical Result, error text and full trace.
func requireWireConformance(t *testing.T, cc wireCluster, mkAdv func() sim.Adversary) sim.Result {
	t.Helper()
	simRes, simTrace, simErr := engineReference(t, cc.protocol, cc.n, cc.tt, cc.bandwidth, mkAdv)
	wireRes, wireTrace, wireErr := cc.run(t, mkAdv)
	if fmt.Sprint(simErr) != fmt.Sprint(wireErr) {
		t.Fatalf("errors diverge:\nsim:  %v\nwire: %v", simErr, wireErr)
	}
	if !reflect.DeepEqual(simRes, wireRes) {
		t.Fatalf("results diverge:\nsim:  %+v\nwire: %+v", simRes, wireRes)
	}
	if !reflect.DeepEqual(simTrace, wireTrace) {
		t.Fatalf("traces diverge: sim %d events, wire %d events\nsim:  %+v\nwire: %+v",
			len(simTrace), len(wireTrace), simTrace, wireTrace)
	}
	return wireRes
}

func noAdv() sim.Adversary { return nil }

// TestWireClusterConformance is the tentpole's acceptance leg: every
// protocol A–D as a loopback TCP cluster of 2 joins, failure-free and under
// replayed explore.Vector fault schedules, DeepEqual to the engine in
// Result, error and trace.
func TestWireClusterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	grids := []struct{ n, t int }{{16, 4}, {24, 8}}
	protocols := []string{"a", "b", "c", "c-lowmsg", "d", "gossip"}
	for _, g := range grids {
		for _, proto := range protocols {
			for advName, mkAdv := range planeAdversaries(g.n, g.t) {
				name := fmt.Sprintf("%s/n=%d,t=%d/%s", proto, g.n, g.t, advName)
				proto, g, mkAdv := proto, g, mkAdv
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res := requireWireConformance(t, wireCluster{protocol: proto, n: g.n, tt: g.t, joins: 2}, mkAdv)
					_ = res
				})
			}
		}
	}
}

// TestWireClusterBandwidthCap is the congested-clique wire leg: gossip under
// a per-round outbound cap of half its fanout, run as a loopback TCP cluster,
// must match the capped engine exactly — the deferred-send queue and the
// pump phase are plane-side state, so the wire plane inherits them unchanged.
func TestWireClusterBandwidthCap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	n, tt := 24, 8
	cap := max(1, (core.GossipFanout(tt)+1)/2)
	for advName, mkAdv := range planeAdversaries(n, tt) {
		advName, mkAdv := advName, mkAdv
		t.Run(advName, func(t *testing.T) {
			t.Parallel()
			res := requireWireConformance(t,
				wireCluster{protocol: "gossip", n: n, tt: tt, joins: 2, bandwidth: cap}, mkAdv)
			if res.Deferred == 0 {
				t.Fatalf("cap %d below fanout %d should defer rumors", cap, core.GossipFanout(tt))
			}
		})
	}
}

// TestWireClusterUnixSocket runs one representative leg over a unix socket:
// the framing and lifecycle are transport-network-agnostic.
func TestWireClusterUnixSocket(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	mkAdv := planeAdversaries(24, 8)["cascade"]
	requireWireConformance(t, wireCluster{protocol: "b", n: 24, tt: 8, joins: 3, network: "unix"}, mkAdv)
}

// TestWireClusterChaos runs clusters whose both directions suffer seeded
// drop/duplicate/reorder chaos: the sequencing layer (dedup, reorder
// buffer, retransmission) must deliver exactly-once in-order semantics, so
// the Result and trace still match the engine exactly.
func TestWireClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos retransmission sleeps")
	}
	const n, tt = 24, 8
	cases := []struct {
		name                  string
		serveChaos, joinChaos live.WireChaos
	}{
		{"drop", live.WireChaos{Drop: 0.15, Seed: 3}, live.WireChaos{Drop: 0.15, Seed: 4}},
		{"dup-all", live.WireChaos{Dup: 1}, live.WireChaos{Dup: 1}},
		{"reorder", live.WireChaos{Reorder: 0.25, Seed: 5}, live.WireChaos{Reorder: 0.25, Seed: 6}},
		{"storm", live.WireChaos{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Seed: 7}, live.WireChaos{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Seed: 8}},
	}
	mkAdv := planeAdversaries(n, tt)["cascade"]
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			requireWireConformance(t, wireCluster{
				protocol: "b", n: n, tt: tt, joins: 2,
				serveChaos: c.serveChaos, joinChaos: c.joinChaos,
			}, mkAdv)
		})
	}
}

// TestWireClusterReconnect drops every join's connection mid-run,
// repeatedly: the rejoin handshake plus the peers' resend buffers must make
// the interruptions invisible — same Result, same trace, no errors.
func TestWireClusterReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("reconnect sleeps")
	}
	mkAdv := planeAdversaries(24, 8)["cascade"]
	requireWireConformance(t, wireCluster{
		protocol: "b", n: 24, tt: 8, joins: 2,
		latency: live.Latency{Base: 500 * time.Microsecond, Jitter: time.Millisecond, Seed: 9},
		bounce:  3,
	}, mkAdv)
}

// TestWireClusterSoak is the bounded multi-process soak: a rotation of
// protocols × fault schedules × chaos profiles on fresh clusters, every run
// checked against the engine. Bounded by iteration count so CI wall-clock
// stays predictable.
func TestWireClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const n, tt = 16, 4
	protocols := []string{"a", "b", "c", "d"}
	advs := []func() sim.Adversary{
		noAdv,
		planeAdversaries(n, tt)["cascade"],
		faultAdversaries(n, tt)["storm"],
	}
	for i := 0; i < 8; i++ {
		proto := protocols[i%len(protocols)]
		mkAdv := advs[i%len(advs)]
		chaos := live.WireChaos{}
		if i%2 == 1 {
			chaos = live.WireChaos{Drop: 0.08, Dup: 0.08, Reorder: 0.08, Seed: int64(i)}
		}
		name := fmt.Sprintf("iter-%d-%s", i, proto)
		t.Run(name, func(t *testing.T) {
			requireWireConformance(t, wireCluster{
				protocol: proto, n: n, tt: tt, joins: 1 + i%3,
				serveChaos: chaos, joinChaos: chaos,
			}, mkAdv)
		})
	}
}

// TestWireClusterJoinDeath kills one join mid-run — its session is
// force-expired, the protocol-level equivalent of SIGKILLing the join
// process and letting the reconnect grace lapse (the cmd-level cluster test
// sends the real signal) — and checks the serve side books the vanished
// PIDs as crashes producing the same certificate as the equivalent
// explore.Vector crash schedule.
func TestWireClusterJoinDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	requireJoinDeathCertified(t, "b", 24, 6)
}

// TestWireClusterJoinDeathMidBatch is the same death under a protocol that
// steps every process every round: the dying join holds a whole round frame
// of armed grants, and exactly those PIDs — its range, no more — must be
// booked as Died in the round they were granted.
func TestWireClusterJoinDeathMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	requireJoinDeathCertified(t, "d", 24, 8)
}

func requireJoinDeathCertified(t *testing.T, protocol string, n, tt int) {
	_, single, err := steppersByName(protocol, n, tt)
	if err != nil {
		t.Fatal(err)
	}
	maxActive := 0
	if single {
		maxActive = 1
	}
	wt, err := live.NewWireTransport(live.WireOptions{
		Network: "tcp", Addr: "127.0.0.1:0", Joins: 2,
		Spec:  live.WireSpec{Protocol: protocol, Units: n, Workers: tt, Latency: live.Latency{Base: 100 * time.Microsecond, Seed: 17}},
		Grace: 10 * time.Second, RTO: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill session 1 (the upper half of the PIDs) once the cluster has
	// visibly stepped a while: the 20th latency draw proves the run is
	// genuinely mid-flight.
	var draws atomic.Int64
	var kill sync.Once
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			errs <- live.Join(live.JoinConfig{
				Network: "tcp", Addr: wt.Addr(),
				Steppers: func(spec live.WireSpec) (func(int) sim.Stepper, error) {
					st, _, err := steppersByName(spec.Protocol, spec.Units, spec.Workers)
					return st, err
				},
				ReconnectGrace: 300 * time.Millisecond, RTO: 5 * time.Millisecond,
				DelayHook: func(int, time.Duration) {
					if draws.Add(1) == 20 {
						kill.Do(func() { go wt.ExpireSession(1) })
					}
				},
			})
		}()
	}
	if err := wt.WaitReady(); err != nil {
		t.Fatal(err)
	}
	res, runErr := live.Run(live.Config{
		NumProcs: tt, NumUnits: n, MaxActive: maxActive, DetailedMetrics: true, Transport: wt,
	}, nil)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	failures := 0
	for i := 0; i < 2; i++ {
		if <-errs != nil {
			failures++ // the killed join errors out by design
		}
	}
	if failures != 1 {
		t.Errorf("join failures = %d, want exactly 1 (the expired session)", failures)
	}
	half := tt / 2 // session 1's range is [half, tt)
	if res.Crashes != tt-half {
		t.Fatalf("crashes = %d, want %d (the dead join's PID range)", res.Crashes, tt-half)
	}
	// Reconstruct the equivalent explore.Vector crash schedule from the
	// retire rounds the deaths landed at and replay it on the engine: the
	// certificates must agree.
	var vec explore.Vector
	for pid := half; pid < tt; pid++ {
		if res.PerProc[pid].Status != sim.StatusCrashed {
			t.Fatalf("pid %d: status %v, want crashed", pid, res.PerProc[pid].Status)
		}
		vec = append(vec, explore.Choice{Victim: pid, Round: res.PerProc[pid].RetireRound})
	}
	if err := vec.Validate(); err != nil {
		t.Fatalf("reconstructed vector: %v", err)
	}
	simRes, _, simErr := engineReference(t, protocol, n, tt, 0, func() sim.Adversary { return vec.Adversary() })
	if simErr != nil {
		t.Fatalf("engine replay: %v", simErr)
	}
	if !reflect.DeepEqual(simRes, res) {
		t.Fatalf("SIGKILL-equivalent schedule diverges:\nsim:  %+v\nwire: %+v", simRes, res)
	}
}
