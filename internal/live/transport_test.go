package live_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// delayLog records every latency draw a transport makes, per PID.
type delayLog struct {
	mu  sync.Mutex
	seq map[int][]time.Duration
}

func newDelayLog() *delayLog { return &delayLog{seq: map[int][]time.Duration{}} }

func (l *delayLog) hook(pid int, d time.Duration) {
	l.mu.Lock()
	l.seq[pid] = append(l.seq[pid], d)
	l.mu.Unlock()
}

// runWithTransport executes the Protocol B cascade workload on the given
// transport and returns the Result.
func runWithTransport(t *testing.T, n, tt int, tr live.Transport) sim.Result {
	t.Helper()
	steppers, err := core.SteppersFor(core.ProtocolBProcs(core.ABConfig{N: n, T: tt}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Run(live.Config{
		NumProcs:  tt,
		NumUnits:  n,
		Adversary: adversary.NewCascade(4, tt-1),
		MaxActive: 1,
		Transport: tr,
	}, steppers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTransportLatencyDeterminism pins the Latency model's contract: a
// delayed transport still produces the engine's Result, one delay is drawn
// per yield, and every draw lies in [Base, Base+Jitter). That the stream is
// a deterministic function of (Seed, pid, draw index), independent of
// delivery topology, is TestTransportLatencySeedReproducible's half.
func TestTransportLatencyDeterminism(t *testing.T) {
	t.Parallel()
	const n, tt = 24, 6
	lat := live.Latency{Base: 20 * time.Microsecond, Jitter: 80 * time.Microsecond, Seed: 42}

	steppers, err := core.SteppersFor(core.ProtocolBProcs(core.ABConfig{N: n, T: tt}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunSteppers(n, tt, steppers, core.RunOptions{
		Adversary: adversary.NewCascade(4, tt-1),
		MaxActive: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	batched := live.NewChanTransport(lat)
	batchedLog := newDelayLog()
	batched.SetDelayHook(batchedLog.hook)

	resBatched := runWithTransport(t, n, tt, batched)

	if !reflect.DeepEqual(resBatched, want) {
		t.Errorf("batched result diverges from engine:\nlive:   %+v\nengine: %+v", resBatched, want)
	}

	if len(batchedLog.seq) == 0 {
		t.Fatal("no delays drawn: latency model did not engage")
	}
	for pid, seq := range batchedLog.seq {
		for i, d := range seq {
			if d < lat.Base || d >= lat.Base+lat.Jitter {
				t.Errorf("pid %d draw %d: delay %v outside [%v, %v)", pid, i, d, lat.Base, lat.Base+lat.Jitter)
			}
		}
	}
}

// TestTransportLatencySeedReproducible pins that re-running with the same
// seed reproduces the exact delay stream, and a different seed changes it.
func TestTransportLatencySeedReproducible(t *testing.T) {
	t.Parallel()
	const n, tt = 16, 4
	draw := func(seed int64) map[int][]time.Duration {
		tr := live.NewChanTransport(live.Latency{Base: time.Microsecond, Jitter: 50 * time.Microsecond, Seed: seed})
		log := newDelayLog()
		tr.SetDelayHook(log.hook)
		runWithTransport(t, n, tt, tr)
		return log.seq
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different delay streams:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced identical delay streams: %v", a)
	}
	if fmt.Sprint(a) == "" {
		t.Fatal("empty stream")
	}
	if testing.Short() {
		return // the TCP leg spawns socket clusters
	}
	// Cross-transport coherence: the same seed must reproduce the same
	// per-PID delay streams when the workers live in socket-joined processes
	// — a join's rng is seeded Seed+pid exactly as ChanTransport's, so where
	// the work ran cannot show in the latency draws.
	drawWire := func(seed int64) map[int][]time.Duration {
		log := newDelayLog()
		cc := wireCluster{
			protocol: "b", n: n, tt: tt, joins: 2,
			latency:   live.Latency{Base: time.Microsecond, Jitter: 50 * time.Microsecond, Seed: seed},
			delayHook: log.hook,
		}
		if _, _, err := cc.run(t, func() sim.Adversary { return adversary.NewCascade(4, tt-1) }); err != nil {
			t.Fatalf("wire run: %v", err)
		}
		return log.seq
	}
	if wa := drawWire(7); !reflect.DeepEqual(a, wa) {
		t.Errorf("seed 7: wire delay streams diverge from ChanTransport's:\nchan: %v\nwire: %v", a, wa)
	}
	if wc := drawWire(8); !reflect.DeepEqual(c, wc) {
		t.Errorf("seed 8: wire delay streams diverge from ChanTransport's:\nchan: %v\nwire: %v", c, wc)
	}
}
