package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsHoldBounds is the reproduction's master check: every
// table regenerates without error and every paper bound holds, on one worker
// and on 8.
func TestAllExperimentsHoldBounds(t *testing.T) {
	seq, par, _ := cachedSuite()
	seqOf := map[string]Table{}
	for _, table := range seq {
		seqOf[table.ID] = table
	}
	for i, e := range All() {
		tables := []Table{par[i]}
		if table, ok := seqOf[e.ID]; ok {
			tables = append(tables, table)
		}
		t.Run(e.ID, func(t *testing.T) {
			for _, table := range tables {
				if table.Err != nil {
					t.Fatalf("%s: %v", e.ID, table.Err)
				}
				if f := table.Failures(); f > 0 {
					t.Fatalf("%s: %d bound failures\n%s", e.ID, f, table.Markdown())
				}
				if len(table.Rows) == 0 {
					t.Fatalf("%s: empty table", e.ID)
				}
				for _, row := range table.Rows {
					if len(row) != len(table.Columns) {
						t.Fatalf("%s: row width %d != %d columns", e.ID, len(row), len(table.Columns))
					}
				}
			}
		})
	}
}

func TestCellFormatting(t *testing.T) {
	c := B(3, 5)
	if c.Value != "3 ≤ 5" || c.OK == nil || !*c.OK {
		t.Fatalf("B(3,5) = %+v", c)
	}
	c = B(7, 5)
	if c.OK == nil || *c.OK {
		t.Fatalf("B(7,5) should fail: %+v", c)
	}
	c = Eq(4, 4)
	if c.Value != "4 = 4" || !*c.OK {
		t.Fatalf("Eq(4,4) = %+v", c)
	}
	if v := V("x"); v.Value != "x" || v.OK != nil {
		t.Fatalf("V = %+v", v)
	}
}

func TestTableMarkdown(t *testing.T) {
	table := Table{
		ID: "T0", Title: "demo", Claim: "c",
		Columns: []string{"a", "b"},
		Rows:    [][]Cell{{V(1), B(2, 3)}},
		Notes:   []string{"note"},
	}
	md := table.Markdown()
	for _, want := range []string{"### T0 — demo", "| a | b |", "| 1 | 2 ≤ 3 ✓ |", "- note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if table.Failures() != 0 {
		t.Fatal("unexpected failures")
	}
	bad := Table{Columns: []string{"x"}, Rows: [][]Cell{{B(9, 1)}}}
	if bad.Failures() != 1 {
		t.Fatal("failure not counted")
	}
	if !strings.Contains(bad.Markdown(), "✗") {
		t.Fatal("failing cell not marked")
	}
	errTable := Table{ID: "E", Err: errFake}
	if !strings.Contains(errTable.Markdown(), "ERROR") {
		t.Fatal("error not rendered")
	}
}

var errFake = errString("fake")

type errString string

func (e errString) Error() string { return string(e) }
