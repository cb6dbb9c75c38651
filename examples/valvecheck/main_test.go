package main

import "testing"

// TestRunSmoke executes the example end to end, defaults and a custom
// instance both: every valve must verify despite the random crashes.
func TestRunSmoke(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-valves", "24", "-controllers", "6", "-crash-p", "0.05", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-valves", "nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestChecksMatchWork pins the Observer to the run's accounting: the bank
// checks each valve exactly as often as Result.Work counts it, crashes that
// keep or discard a check included.
func TestChecksMatchWork(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		bank, res, err := check(48, 8, 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for u := 1; u <= bank.Size(); u++ {
			total += bank.Checks(u)
		}
		if int64(total) != res.Work {
			t.Errorf("seed %d: %d checks, Result.Work %d", seed, total, res.Work)
		}
	}
}
