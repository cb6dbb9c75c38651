package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestRecorderCapturesRun(t *testing.T) {
	rec := NewRecorder(0)
	pr, err := core.ProtocolBProcs(core.ABConfig{N: 8, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.RunProcs(8, 4, pr, core.RunOptions{
		Adversary: adversary.NewCascade(2, 3),
		Tracer:    rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	tl := rec.Timeline(0)
	for _, want := range []string{"p0", "p3", "W", "X", "rounds:"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	sum := rec.Summary()
	if !strings.Contains(sum, "p0") || !strings.Contains(sum, "work") {
		t.Fatalf("summary:\n%s", sum)
	}
}

// TestSummaryWorkMatchesResult pins the work column on crashes that discard
// the unit of the crashing action: Summary counts only the units the run
// counts, while the timeline still marks the crash.
func TestSummaryWorkMatchesResult(t *testing.T) {
	rec := NewRecorder(0)
	res, err := core.RunProcs(8, 3, core.TrivialProcs(8), core.RunOptions{
		Adversary: adversary.NewSchedule(
			adversary.Crash{PID: 0, AtAction: 3},
			adversary.Crash{PID: 1, AtAction: 6},
		),
		Tracer: rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", res.Crashes)
	}
	rows := strings.Split(strings.TrimSpace(rec.Summary()), "\n")[1:]
	if len(rows) != len(res.PerProc) {
		t.Fatalf("summary has %d rows for %d processes:\n%s", len(rows), len(res.PerProc), rec.Summary())
	}
	for _, row := range rows {
		var pid, acts, work, sent int
		if _, err := fmt.Sscanf(row, "p%d %d %d %d", &pid, &acts, &work, &sent); err != nil {
			t.Fatalf("summary row %q: %v", row, err)
		}
		if int64(work) != res.PerProc[pid].Work {
			t.Errorf("p%d: summary work %d, Result work %d", pid, work, res.PerProc[pid].Work)
		}
	}
	// The timeline's rows follow its header line, one per process.
	lines := strings.Split(rec.Timeline(0), "\n")
	for pid := range 2 {
		if row := lines[1+pid]; !strings.Contains(row, "X") {
			t.Errorf("timeline row %q lacks the crash", row)
		}
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := NewRecorder(3)
	hook := rec.Hook()
	for i := 0; i < 10; i++ {
		hook(sim.Event{Round: int64(i), PID: 0, Work: 1})
	}
	if len(rec.Events()) != 3 || rec.Dropped() != 7 {
		t.Fatalf("events=%d dropped=%d", len(rec.Events()), rec.Dropped())
	}
	if !strings.Contains(rec.Timeline(0), "7 dropped") {
		t.Fatal("dropped count not reported")
	}
}

func TestTimelineSymbols(t *testing.T) {
	cases := []struct {
		e    sim.Event
		want byte
	}{
		{sim.Event{Work: 1}, 'W'},
		{sim.Event{Sent: 2}, 'S'},
		{sim.Event{Work: 1, Sent: 1}, 'B'},
		{sim.Event{Crashed: true}, 'X'},
		{sim.Event{Halted: true}, 'H'},
		{sim.Event{}, '.'},
	}
	for _, c := range cases {
		if got := symbol(c.e); got != c.want {
			t.Errorf("symbol(%+v) = %c, want %c", c.e, got, c.want)
		}
	}
}

func TestTimelineGapCompression(t *testing.T) {
	rec := NewRecorder(0)
	hook := rec.Hook()
	hook(sim.Event{Round: 0, PID: 0, Work: 1})
	hook(sim.Event{Round: 1, PID: 0, Work: 1})
	hook(sim.Event{Round: 1000, PID: 1, Work: 1})
	tl := rec.Timeline(0)
	if !strings.Contains(tl, "quiet gaps compressed") {
		t.Fatalf("gap note missing:\n%s", tl)
	}
	if !strings.Contains(tl, "0..1, 1000") {
		t.Fatalf("axis intervals wrong:\n%s", tl)
	}
}

func TestTimelineColumnLimit(t *testing.T) {
	rec := NewRecorder(0)
	hook := rec.Hook()
	for i := 0; i < 50; i++ {
		hook(sim.Event{Round: int64(i), PID: 0, Work: 1})
	}
	tl := rec.Timeline(10)
	if !strings.Contains(tl, "beyond column limit") {
		t.Fatalf("column truncation not reported:\n%s", tl)
	}
}

func TestEmptyTimeline(t *testing.T) {
	rec := NewRecorder(0)
	if got := rec.Timeline(0); got != "(no events)\n" {
		t.Fatalf("empty timeline = %q", got)
	}
}
