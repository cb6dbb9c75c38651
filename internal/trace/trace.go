// Package trace records simulator events and renders them as ASCII
// timelines — one row per process, one column per active round — for
// debugging protocol executions and for the -trace mode of cmd/doall.
package trace

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Recorder accumulates events from a run (bounded to avoid unbounded growth
// on exponential-time protocols).
type Recorder struct {
	limit   int
	events  []sim.Event
	dropped int
}

// NewRecorder builds a recorder keeping at most limit events (0 = a large
// default).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 100_000
	}
	return &Recorder{limit: limit}
}

// Hook returns the engine tracer callback.
func (r *Recorder) Hook() func(sim.Event) {
	return func(e sim.Event) {
		if len(r.events) >= r.limit {
			r.dropped++
			return
		}
		r.events = append(r.events, e)
	}
}

// Events returns the recorded events in order.
func (r *Recorder) Events() []sim.Event { return r.events }

// Dropped reports how many events exceeded the limit.
func (r *Recorder) Dropped() int { return r.dropped }

// symbol classifies an event for the timeline:
//
//	W work   S send   B work+send   X crash   H halt   .  idle action
func symbol(e sim.Event) byte {
	switch {
	case e.Crashed:
		return 'X'
	case e.Halted:
		return 'H'
	case e.Work > 0 && e.Sent > 0:
		return 'B'
	case e.Work > 0:
		return 'W'
	case e.Sent > 0:
		return 'S'
	default:
		return '.'
	}
}

// Timeline renders the run as one row per process over the rounds in which
// anything happened, compressing quiet gaps. maxCols bounds the width
// (0 = 120 columns).
func (r *Recorder) Timeline(maxCols int) string {
	if maxCols <= 0 {
		maxCols = 120
	}
	if len(r.events) == 0 {
		return "(no events)\n"
	}
	// Collect the distinct active rounds, in order.
	roundSet := make(map[int64]bool)
	maxPID := 0
	for _, e := range r.events {
		roundSet[e.Round] = true
		if e.PID > maxPID {
			maxPID = e.PID
		}
	}
	rounds := slices.Sorted(maps.Keys(roundSet))
	if len(rounds) > maxCols {
		rounds = rounds[:maxCols]
	}
	col := make(map[int64]int, len(rounds))
	for i, rd := range rounds {
		col[rd] = i
	}

	grid := make([][]byte, maxPID+1)
	for pid := range grid {
		grid[pid] = []byte(strings.Repeat(" ", len(rounds)))
	}
	truncated := 0
	for _, e := range r.events {
		c, ok := col[e.Round]
		if !ok {
			truncated++
			continue
		}
		grid[e.PID][c] = symbol(e)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "timeline (%d active rounds%s; W work, S send, B both, X crash, H halt, . idle)\n",
		len(rounds), gapNote(rounds))
	for pid, row := range grid {
		fmt.Fprintf(&b, "p%-3d |%s|\n", pid, string(row))
	}
	b.WriteString(axis(rounds))
	if truncated > 0 || r.dropped > 0 {
		fmt.Fprintf(&b, "(%d events beyond column limit, %d dropped)\n", truncated, r.dropped)
	}
	return b.String()
}

// gapNote flags fast-forwarded gaps in the round sequence.
func gapNote(rounds []int64) string {
	for i := 1; i < len(rounds); i++ {
		if rounds[i] != rounds[i-1]+1 {
			return ", quiet gaps compressed"
		}
	}
	return ""
}

// axis lists the column rounds as compressed intervals (columns are only
// the rounds in which something happened).
func axis(rounds []int64) string {
	if len(rounds) == 0 {
		return ""
	}
	var spans []string
	start, prev := rounds[0], rounds[0]
	flush := func() {
		if start == prev {
			spans = append(spans, fmt.Sprint(start))
		} else {
			spans = append(spans, fmt.Sprintf("%d..%d", start, prev))
		}
	}
	for _, rd := range rounds[1:] {
		if rd != prev+1 {
			flush()
			start = rd
		}
		prev = rd
	}
	flush()
	return "rounds: " + strings.Join(spans, ", ") + "\n"
}

// Diff compares two event streams and returns the empty string when they
// are identical, or a description of the first divergence. The live-plane
// round-trip tests and `doall live -compare` use it to pin that a run
// recorded on one execution plane replays to the identical trace on the
// other.
func Diff(a, b []sim.Event) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("event counts diverge: %d vs %d (first %d equal)", len(a), len(b), n)
	}
	return ""
}

// Summary aggregates per-process event counts.
func (r *Recorder) Summary() string {
	type agg struct{ work, sent, acts int }
	byPID := map[int]*agg{}
	for _, e := range r.events {
		a := byPID[e.PID]
		if a == nil {
			a = &agg{}
			byPID[e.PID] = a
		}
		if e.Work > 0 {
			a.work++
		}
		a.sent += e.Sent
		a.acts++
	}
	var b strings.Builder
	b.WriteString("proc  actions  work  sent\n")
	for _, pid := range slices.Sorted(maps.Keys(byPID)) {
		a := byPID[pid]
		fmt.Fprintf(&b, "p%-4d %7d  %4d  %4d\n", pid, a.acts, a.work, a.sent)
	}
	return b.String()
}
