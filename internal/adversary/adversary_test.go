package adversary

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestScheduleActionCrash(t *testing.T) {
	s := NewSchedule(Crash{PID: 3, AtAction: 2, KeepWork: true})
	if v := s.OnAction(0, 3, sim.Action{WorkUnit: 1}); v.Crash {
		t.Fatal("crashed on first action, want second")
	}
	v := s.OnAction(1, 3, sim.Action{WorkUnit: 2})
	if !v.Crash || !v.KeepWork {
		t.Fatalf("verdict = %+v, want crash with kept work", v)
	}
	if v := s.OnAction(2, 4, sim.Action{}); v.Crash {
		t.Fatal("other pid crashed")
	}
	// Of two action crashes for one PID the later entry counts, over all of
	// the PID's actions.
	s = NewSchedule(Crash{PID: 3, AtAction: 1}, Crash{PID: 3, AtAction: 3, KeepWork: true})
	for i := range 3 {
		if v := s.OnAction(int64(i), 3, sim.Action{}); v.Crash != (i == 2) || v.Crash && !v.KeepWork {
			t.Fatalf("action %d: verdict %+v, want only action 3 to crash, keeping work", i+1, v)
		}
	}
}

// TestScheduleRoundCrash pins round triggers, for a Schedule and for the
// vector adversary that shares its interpreter: the round's victims sorted,
// nil for a round without one, and the chain of next crash rounds.
func TestScheduleRoundCrash(t *testing.T) {
	for _, adv := range []sim.Adversary{
		NewSchedule(Crash{PID: 2, Round: 5}, Crash{PID: 1, Round: 5}, Crash{PID: 0, Round: 9}),
		Vector{{Victim: 2, Round: 5}, {Victim: 1, Round: 5}, {Victim: 0, Round: 9}}.Adversary(),
	} {
		if got := adv.ScheduledCrashes(5); !reflect.DeepEqual(got, []int{1, 2}) {
			t.Fatalf("%T: ScheduledCrashes(5) = %v", adv, got)
		}
		if got := adv.ScheduledCrashes(6); got != nil {
			t.Fatalf("%T: ScheduledCrashes(6) = %v", adv, got)
		}
		for _, c := range []struct{ after, want int64 }{{-1, 5}, {0, 5}, {5, 9}, {9, -1}} {
			if n := adv.NextScheduledCrash(c.after); n != c.want {
				t.Fatalf("%T: NextScheduledCrash(%d) = %d, want %d", adv, c.after, n, c.want)
			}
		}
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	mk := func() []bool {
		r := NewRandom(0.5, 3, 42)
		var out []bool
		for i := 0; i < 50; i++ {
			v := r.OnAction(int64(i), i%7, sim.Action{WorkUnit: 1, Sends: []sim.Send{{To: 0}}})
			out = append(out, v.Crash)
		}
		return out
	}
	a, b := mk(), mk()
	crashes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random adversary not reproducible")
		}
		if a[i] {
			crashes++
		}
	}
	if crashes > 3 {
		t.Fatalf("crashes = %d, want <= 3", crashes)
	}
	if crashes == 0 {
		t.Fatal("p=0.5 over 50 actions should crash at least once")
	}
}

func TestCascadeCrashesAfterWorkAtNextSend(t *testing.T) {
	c := NewCascade(2, 1)
	// First work unit: survive.
	if v := c.OnAction(0, 0, sim.Action{WorkUnit: 1}); v.Crash {
		t.Fatal("crashed too early")
	}
	// Second work unit: threshold reached, but no send yet.
	if v := c.OnAction(1, 0, sim.Action{WorkUnit: 2}); v.Crash {
		t.Fatal("crashed on work action; should wait for the send")
	}
	// The checkpoint send: crash, suppressing the broadcast.
	v := c.OnAction(2, 0, sim.Action{Sends: []sim.Send{{To: 1}, {To: 2}}})
	if !v.Crash || !v.KeepWork || len(v.Deliver) != 0 {
		t.Fatalf("verdict = %+v, want crash keeping work delivering nothing", v)
	}
	// Budget exhausted: the next process survives.
	c.OnAction(3, 1, sim.Action{WorkUnit: 3})
	c.OnAction(4, 1, sim.Action{WorkUnit: 4})
	if v := c.OnAction(5, 1, sim.Action{Sends: []sim.Send{{To: 2}}}); v.Crash {
		t.Fatal("exceeded crash budget")
	}
	if c.Crashes() != 1 {
		t.Fatalf("Crashes() = %d, want 1", c.Crashes())
	}
}

func TestChainComposition(t *testing.T) {
	c := NewChain(
		NewSchedule(Crash{PID: 0, Round: 3}),
		NewSchedule(Crash{PID: 1, Round: 7}, Crash{PID: 2, AtAction: 1}),
	)
	if got := c.ScheduledCrashes(3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ScheduledCrashes(3) = %v", got)
	}
	if n := c.NextScheduledCrash(3); n != 7 {
		t.Fatalf("NextScheduledCrash(3) = %d, want 7", n)
	}
	if v := c.OnAction(0, 2, sim.Action{}); !v.Crash {
		t.Fatal("chained action crash missing")
	}
	if v := c.OnAction(0, 5, sim.Action{}); v.Crash {
		t.Fatal("unexpected crash")
	}
}

func TestNone(t *testing.T) {
	adv := None()
	if v := adv.OnAction(0, 0, sim.Action{WorkUnit: 1}); v.Crash {
		t.Fatal("None crashed")
	}
	if n := adv.NextScheduledCrash(0); n != -1 {
		t.Fatalf("NextScheduledCrash = %d", n)
	}
}
