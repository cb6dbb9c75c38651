package experiments

import (
	"flag"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the checked-in EXPERIMENTS.md from the deterministic suite")

// checkedIn is the repository's EXPERIMENTS.md, relative to this package.
const checkedIn = "../../EXPERIMENTS.md"

// suite caches the one run of the suite every test here checks: the
// deterministic experiments on one worker, and all of them (F6 included, its
// only run) on 8.
var suite struct {
	once      sync.Once
	seq, par  []Table
	seqReport string
}

func cachedSuite() (seq, par []Table, seqReport string) {
	suite.once.Do(func() {
		suite.seq = Run(Deterministic(), 1)
		suite.par = Run(All(), 8)
		suite.seqReport = Report(suite.seq)
	})
	return suite.seq, suite.par, suite.seqReport
}

// TestReportByteIdenticalAcrossWorkerCounts pins the orchestration
// guarantee end-to-end: regenerating the deterministic experiment suite on
// one worker and on many must render byte-identical EXPERIMENTS.md content.
func TestReportByteIdenticalAcrossWorkerCounts(t *testing.T) {
	_, par, seq := cachedSuite()
	var det []Table
	for i, e := range All() {
		if !e.Nondet {
			det = append(det, par[i])
		}
	}
	parallel := Report(det)
	if seq != parallel {
		t.Fatalf("report bytes differ between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s",
			seq, parallel)
	}
	if !strings.Contains(seq, "Total bound failures: 0.") {
		t.Fatalf("deterministic suite has bound failures:\n%s", seq)
	}
}

// TestExperimentsMatchCheckedIn pins the checked-in EXPERIMENTS.md to what
// the code measures, byte for byte: a change that moves any table cell —
// an X-table certificate count included — fails here until the file is
// regenerated, with
//
//	go test ./internal/experiments -run TestExperimentsMatchCheckedIn -update
//
// (the same bytes as go run ./cmd/experiments).
func TestExperimentsMatchCheckedIn(t *testing.T) {
	_, _, got := cachedSuite()
	if *update {
		if err := os.WriteFile(checkedIn, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(checkedIn)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("EXPERIMENTS.md is stale from line %d (rerun with -update if the change is meant):\nchecked in: %q\nmeasured:   %q",
					i+1, w, g)
			}
		}
	}
}

func TestRunPreservesIndexOrder(t *testing.T) {
	exps := All()
	_, tables, _ := cachedSuite()
	if len(tables) != len(exps) {
		t.Fatalf("%d tables for %d experiments", len(tables), len(exps))
	}
	for i, table := range tables {
		if table.ID != exps[i].ID {
			t.Fatalf("table %d is %s, want %s (ordering broke)", i, table.ID, exps[i].ID)
		}
	}
}

func TestDeterministicExcludesAsync(t *testing.T) {
	for _, e := range Deterministic() {
		if e.ID == "F6" {
			t.Fatal("F6 (real-goroutine async) must not be in the deterministic set")
		}
	}
	if len(Deterministic()) != len(All())-1 {
		t.Fatalf("deterministic set has %d experiments, want %d", len(Deterministic()), len(All())-1)
	}
}

func TestSelect(t *testing.T) {
	got := Select(All(), map[string]bool{"T3": true, "X1": true})
	if len(got) != 2 || got[0].ID != "T3" || got[1].ID != "X1" {
		t.Fatalf("Select = %v", got)
	}
	if len(Select(All(), nil)) != len(All()) {
		t.Fatal("empty filter should keep everything")
	}
}
