package trace

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// Round-trip determinism across execution planes: a run recorded on the
// live plane, replayed through the sim engine under the same configuration
// and crash schedule, must produce the identical event stream — same
// rounds, same PIDs, same labels, same order. Traces are the finest-grained
// observable the simulator exposes, so this pins plane equivalence at a
// resolution Result comparison cannot.

type roundtripCase struct {
	name  string
	n, t  int
	procs func(n, t int) (core.Procs, error)
	mkAdv func(n, t int) sim.Adversary
}

func roundtripCases() []roundtripCase {
	vec, err := adversary.ParseVector("0@a4:keep:p2,1@a6:lose:m3")
	if err != nil {
		panic(err)
	}
	return []roundtripCase{
		{
			name: "B-cascade", n: 48, t: 8,
			procs: func(n, t int) (core.Procs, error) { return core.ProtocolBProcs(core.ABConfig{N: n, T: t}) },
			mkAdv: func(n, t int) sim.Adversary { return adversary.NewCascade(max(1, n/t), t-1) },
		},
		{
			name: "A-vector-midbroadcast", n: 24, t: 6,
			procs: func(n, t int) (core.Procs, error) { return core.ProtocolAProcs(core.ABConfig{N: n, T: t}) },
			mkAdv: func(n, t int) sim.Adversary { return vec.Adversary() },
		},
		{
			name: "D-random", n: 64, t: 16,
			procs: func(n, t int) (core.Procs, error) { return core.ProtocolDProcs(core.DConfig{N: n, T: t}) },
			mkAdv: func(n, t int) sim.Adversary { return adversary.NewRandom(0.05, t-1, 11) },
		},
		{
			name: "C-sleep-crash", n: 20, t: 5,
			procs: func(n, t int) (core.Procs, error) { return core.ProtocolCProcs(core.CConfig{N: n, T: t}) },
			mkAdv: func(n, t int) sim.Adversary {
				return adversary.NewSchedule(adversary.Crash{PID: t - 1, Round: 2})
			},
		},
	}
}

func recordLive(t *testing.T, c roundtripCase) *Recorder {
	t.Helper()
	pr, err := c.procs(c.n, c.t)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	if _, err := live.Run(live.Config{
		NumProcs: c.t, NumUnits: c.n, Adversary: c.mkAdv(c.n, c.t), Tracer: rec.Hook(),
	}, pr.Steppers); err != nil {
		t.Fatal(err)
	}
	return rec
}

func recordSim(t *testing.T, c roundtripCase) *Recorder {
	t.Helper()
	pr, err := c.procs(c.n, c.t)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	if _, err := core.RunProcs(c.n, c.t, pr, core.RunOptions{
		Adversary: c.mkAdv(c.n, c.t), Tracer: rec.Hook(),
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLiveTraceRoundTrip(t *testing.T) {
	for _, c := range roundtripCases() {
		t.Run(c.name, func(t *testing.T) {
			liveRec := recordLive(t, c)
			simRec := recordSim(t, c)
			if d := Diff(liveRec.Events(), simRec.Events()); d != "" {
				t.Fatalf("live trace does not replay through the sim plane: %s", d)
			}
			if len(liveRec.Events()) == 0 {
				t.Fatal("recorded no events")
			}
			// And the rendered artifacts agree too, timeline and summary.
			if liveRec.Timeline(120) != simRec.Timeline(120) {
				t.Fatal("timelines diverge")
			}
			if liveRec.Summary() != simRec.Summary() {
				t.Fatal("summaries diverge")
			}
		})
	}
}

// TestLiveTraceReplayDeterminism records the same live configuration twice
// and requires identical traces: the plane's concurrency must not leak into
// the observable event order.
func TestLiveTraceReplayDeterminism(t *testing.T) {
	for _, c := range roundtripCases() {
		t.Run(c.name, func(t *testing.T) {
			a := recordLive(t, c)
			b := recordLive(t, c)
			if d := Diff(a.Events(), b.Events()); d != "" {
				t.Fatalf("live trace not deterministic: %s", d)
			}
		})
	}
}

func TestDiff(t *testing.T) {
	ev := func(r int64, pid int) sim.Event { return sim.Event{Round: r, PID: pid} }
	if d := Diff([]sim.Event{ev(0, 1)}, []sim.Event{ev(0, 1)}); d != "" {
		t.Fatalf("equal streams diff: %s", d)
	}
	if d := Diff([]sim.Event{ev(0, 1)}, []sim.Event{ev(0, 2)}); d == "" {
		t.Fatal("divergent events not reported")
	}
	if d := Diff([]sim.Event{ev(0, 1)}, []sim.Event{ev(0, 1), ev(1, 1)}); d == "" {
		t.Fatal("length divergence not reported")
	}
	if want := "event counts diverge: 1 vs 2 (first 1 equal)"; Diff([]sim.Event{ev(0, 1)}, []sim.Event{ev(0, 1), ev(1, 1)}) != want {
		t.Fatalf("unexpected diff text %q", Diff([]sim.Event{ev(0, 1)}, []sim.Event{ev(0, 1), ev(1, 1)}))
	}
}
