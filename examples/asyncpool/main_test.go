package main

import "testing"

// TestRunSmoke executes the example end to end, defaults and a small
// instance both: every job must be done despite the killed workers.
func TestRunSmoke(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-jobs", "20", "-workers", "5", "-kills", "4", "-max-delay", "0", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workers", "4", "-kills", "4"}); err == nil {
		t.Fatal("a plan that kills every worker accepted")
	}
}
