package adversary

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestLossSeededAndBounded pins the Loss adversary's contract: one rng draw
// per delivery in delivery order (so the same seed loses the same set), and
// never more than maxDrops losses.
func TestLossSeededAndBounded(t *testing.T) {
	const deliveries = 400
	run := func() ([]bool, int) {
		l := NewLoss(0.2, 10, 42)
		out := make([]bool, deliveries)
		for i := range out {
			out[i] = l.OnDeliver(int64(i), sim.Message{To: i % 4})
		}
		return out, l.Dropped()
	}
	first, dropped := run()
	if dropped != 10 {
		t.Fatalf("dropped = %d, want the maxDrops cap 10", dropped)
	}
	lost := 0
	for _, ok := range first {
		if !ok {
			lost++
		}
	}
	if lost != dropped {
		t.Fatalf("lost %d deliveries but Dropped() = %d", lost, dropped)
	}
	again, _ := run()
	if !reflect.DeepEqual(first, again) {
		t.Fatal("same seed lost a different delivery set")
	}
	never := NewLoss(0, 100, 1)
	for i := 0; i < 50; i++ {
		if !never.OnDeliver(0, sim.Message{}) {
			t.Fatal("p=0 dropped a message")
		}
	}
	always := NewLoss(1, 3, 1)
	for i := 0; i < 5; i++ {
		always.OnDeliver(0, sim.Message{})
	}
	if always.Dropped() != 3 {
		t.Fatalf("p=1 dropped %d, want exactly maxDrops 3", always.Dropped())
	}
}

// TestSlowdownFiresOnceAtRound pins the Slowdown verdict: nothing before
// the trigger round or for other processes, one Slow verdict at the first
// committed action at or after it, silence after.
func TestSlowdownFiresOnceAtRound(t *testing.T) {
	s := &Slowdown{PID: 1, Round: 3, Factor: 4}
	if v := s.OnAction(2, 1, sim.Action{}); v.Slow != 0 || v.Crash {
		t.Fatalf("fired before round: %+v", v)
	}
	if v := s.OnAction(5, 0, sim.Action{}); v.Slow != 0 {
		t.Fatalf("fired for wrong pid: %+v", v)
	}
	if v := s.OnAction(5, 1, sim.Action{}); v.Slow != 4 {
		t.Fatalf("verdict %+v, want Slow=4", v)
	}
	if v := s.OnAction(9, 1, sim.Action{}); v.Slow != 0 {
		t.Fatalf("fired twice: %+v", v)
	}
}

// TestScheduleRestarts pins the Restarter view of a schedule: only
// round-triggered crashes with a strictly later RestartAt are announced
// (action-triggered restarts ride the crash verdict), sorted per round.
func TestScheduleRestarts(t *testing.T) {
	s := NewSchedule(
		Crash{PID: 2, Round: 1, RestartAt: 5},
		Crash{PID: 0, Round: 2, RestartAt: 5},
		Crash{PID: 1, Round: 3},                  // never revived
		Crash{PID: 3, AtAction: 2, RestartAt: 9}, // rides the verdict
		Crash{PID: 4, Round: 7, RestartAt: 7},    // not strictly later: ignored
		Crash{PID: 5, Round: 8, RestartAt: 4},    // before its crash: ignored
	)
	if got := s.ScheduledRestarts(5); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("ScheduledRestarts(5) = %v", got)
	}
	if got := s.ScheduledRestarts(9); got != nil {
		t.Fatalf("action-crash restart announced: %v", got)
	}
	for _, r := range []int64{4, 7} {
		if got := s.ScheduledRestarts(r); got != nil {
			t.Fatalf("ScheduledRestarts(%d) = %v: a restart not after its crash announced", r, got)
		}
	}
	if n := s.NextScheduledRestart(-1); n != 5 {
		t.Fatalf("NextScheduledRestart(-1) = %d", n)
	}
	if n := s.NextScheduledRestart(5); n != -1 {
		t.Fatalf("NextScheduledRestart(5) = %d", n)
	}
	v := s.OnAction(0, 3, sim.Action{})
	if !v.Crash {
		v = s.OnAction(1, 3, sim.Action{})
	}
	if !v.Crash || v.RestartAt != 9 {
		t.Fatalf("action-crash verdict %+v, want RestartAt 9", v)
	}
}

// TestChainDeliveryAndRestarts pins the Chain's composition rules for the
// extended alphabet: every delivery-aware member sees every delivery (no
// short-circuit, so composed rng streams stay replayable), a message dies
// if any member drops it, and restart schedules union across members.
func TestChainDeliveryAndRestarts(t *testing.T) {
	c := NewChain(
		NewLoss(1, 1, 7), // drops exactly the first delivery
		NewLoss(1, 2, 7),
		NewSchedule(Crash{PID: 0, Round: 1, RestartAt: 4}),
		NewSchedule(Crash{PID: 1, Round: 2, RestartAt: 6}),
	)
	if c.OnDeliver(0, sim.Message{}) {
		t.Fatal("both members drop, chain delivered")
	}
	if c.OnDeliver(0, sim.Message{}) {
		t.Fatal("second member still drops, chain delivered")
	}
	if !c.OnDeliver(0, sim.Message{}) {
		t.Fatal("all members exhausted, chain dropped")
	}
	if got := c.ScheduledRestarts(4); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("ScheduledRestarts(4) = %v", got)
	}
	if n := c.NextScheduledRestart(-1); n != 4 {
		t.Fatalf("NextScheduledRestart(-1) = %d", n)
	}
	if n := c.NextScheduledRestart(4); n != 6 {
		t.Fatalf("NextScheduledRestart(4) = %d", n)
	}
	slow := NewChain(&Slowdown{PID: 0, Round: 0, Factor: 3})
	if v := slow.OnAction(0, 0, sim.Action{}); v.Slow != 3 {
		t.Fatalf("chain swallowed the slowdown verdict: %+v", v)
	}
}

// TestRandomCrashesCounter covers the Crashes accessor alongside the
// bounded-injection contract.
func TestRandomCrashesCounter(t *testing.T) {
	r := NewRandom(1, 2, 5)
	for i := 0; i < 5; i++ {
		r.OnAction(0, i, sim.Action{WorkUnit: 1})
	}
	if r.Crashes() != 2 {
		t.Fatalf("Crashes() = %d, want the cap 2", r.Crashes())
	}
}
