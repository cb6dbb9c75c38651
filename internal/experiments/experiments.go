// Package experiments regenerates every table and figure of the paper's
// evaluation: the worst-case bound theorems (T1–T9), the motivating
// complexity comparisons (F1–F7) and reproduction-specific ablations and
// model-checking sweeps (X1–X7). DESIGN.md carries the experiment index;
// cmd/experiments renders
// the output of Run into EXPERIMENTS.md via the internal/batch fan-out
// runner; bench_test.go exposes each experiment as a benchmark.
package experiments

import (
	"fmt"
	"strings"
)

// Cell is one measured (or bound) value in a table.
type Cell struct {
	Value string
	// OK records bound checks: nil for plain values, otherwise whether the
	// measured value respects the paper's bound.
	OK *bool
}

// V formats a plain value cell.
func V(v any) Cell { return Cell{Value: fmt.Sprint(v)} }

// B formats a "measured vs bound" cell and records the check.
func B(measured, bound int64) Cell {
	ok := measured <= bound
	return Cell{Value: fmt.Sprintf("%d ≤ %d", measured, bound), OK: &ok}
}

// Eq formats a "measured = expected" cell and records the check.
func Eq(measured, expected int64) Cell {
	ok := measured == expected
	return Cell{Value: fmt.Sprintf("%d = %d", measured, expected), OK: &ok}
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being reproduced
	Columns []string
	Rows    [][]Cell
	Notes   []string
	Err     error
}

// Failures counts bound cells that did not hold.
func (t Table) Failures() int {
	n := 0
	for _, row := range t.Rows {
		for _, c := range row {
			if c.OK != nil && !*c.OK {
				n++
			}
		}
	}
	return n
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Paper claim: %s\n\n", t.Claim)
	if t.Err != nil {
		fmt.Fprintf(&b, "**ERROR:** %v\n\n", t.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	fmt.Fprintf(&b, "|%s\n", strings.Repeat("---|", len(t.Columns)))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.Value
			if c.OK != nil {
				if *c.OK {
					cells[i] += " ✓"
				} else {
					cells[i] += " ✗"
				}
			}
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment pairs an ID with its runner. Nondet marks experiments that run
// on real goroutines and wall-clock delays; their bounds still hold on
// every run, but they are excluded from byte-identity checks.
type Experiment struct {
	ID     string
	Run    func() Table
	Nondet bool
}

// All lists every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Run: T1ProtocolA},
		{ID: "T2", Run: T2ProtocolB},
		{ID: "T3", Run: T3ProtocolC},
		{ID: "T4", Run: T4ProtocolCLowMsg},
		{ID: "T5", Run: T5ProtocolD},
		{ID: "T6", Run: T6ProtocolDRevert},
		{ID: "T7", Run: T7ProtocolDFailureFree},
		{ID: "T8", Run: T8Agreement},
		{ID: "T9", Run: T9Bootstrap},
		{ID: "F1", Run: F1CheckpointFrequency},
		{ID: "F2", Run: F2NaiveVsC},
		{ID: "F3", Run: F3EffortComparison},
		{ID: "F4", Run: F4TimeDegradation},
		{ID: "F5", Run: F5SharedMemory},
		{ID: "F6", Run: F6AsyncProtocolA, Nondet: true},
		{ID: "F7", Run: F7DynamicWork},
		{ID: "X1", Run: X1FastForward},
		{ID: "X2", Run: X2PartialCheckpointAblation},
		{ID: "X3", Run: X3RevertThreshold},
		{ID: "X4", Run: X4ScheduleSpace},
		{ID: "X5", Run: X5FaultSurvival},
		{ID: "X6", Run: X6CertificationAtScale},
		{ID: "X7", Run: X7SuccessorCertification},
	}
}

// Deterministic lists the experiments whose tables are byte-reproducible
// across runs — All minus the real-goroutine asynchronous ones.
func Deterministic() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if !e.Nondet {
			out = append(out, e)
		}
	}
	return out
}

// Select filters experiments by ID; an empty want set keeps everything.
func Select(exps []Experiment, want map[string]bool) []Experiment {
	if len(want) == 0 {
		return exps
	}
	var out []Experiment
	for _, e := range exps {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out
}
