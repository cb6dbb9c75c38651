package sim

import (
	"strings"
	"testing"
)

func TestTapSeesDrainedMessages(t *testing.T) {
	var tapped []any
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: "a"}), opSend(Send{To: 1, Payload: "b"}))
		}
		return steps(
			opDo(func(p *Proc) { p.SetTap(func(m Message) { tapped = append(tapped, m.Payload) }) }),
			opWait(5, nil),
			opWait(6, nil),
		)
	})
	if len(tapped) != 2 || tapped[0] != "a" || tapped[1] != "b" {
		t.Fatalf("tapped = %v", tapped)
	}
}

func TestBusyProcessKeepsMail(t *testing.T) {
	// Mail delivered while a process is busy waits in its inbox for the next
	// Drain, even when the process never sleeps.
	var got int
	run(t, Config{NumProcs: 2, NumUnits: 0}, func(id int) Stepper {
		if id == 0 {
			return steps(opSend(Send{To: 1, Payload: 1}))
		}
		return steps(
			opIdle(),
			opIdle(), // mail arrives while busy
			opDo(func(p *Proc) { got = len(p.Drain()) }),
		)
	})
	if got != 1 {
		t.Fatalf("got %d messages", got)
	}
}

func TestSendToInvalidPID(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 1, NumUnits: 0}, func(int) Stepper {
		return steps(opSend(Send{To: 9, Payload: "x"}))
	}).Run()
	if err == nil || !strings.Contains(err.Error(), "invalid pid") {
		t.Fatalf("want invalid pid error, got %v", err)
	}
}

func TestUnitsAndNAccessors(t *testing.T) {
	run(t, Config{NumProcs: 3, NumUnits: 7}, func(id int) Stepper {
		return steps(opDo(func(p *Proc) {
			if p.N() != 3 || p.Units() != 7 || p.ID() != id {
				t.Errorf("accessors wrong: N=%d Units=%d ID=%d", p.N(), p.Units(), p.ID())
			}
		}))
	})
}

func TestLabelReachesTrace(t *testing.T) {
	var labels []string
	_, err := NewStepper(Config{
		NumProcs: 1, NumUnits: 1,
		Tracer: func(e Event) { labels = append(labels, e.Label) },
	}, func(int) Stepper {
		return steps(opDo(func(p *Proc) { p.SetLabel("active") }), opWork(1))
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 || labels[0] != "active" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestManyProcessesManyRounds(t *testing.T) {
	// Stress: 512 processes ping-ponging for 50 rounds each.
	const nProcs = 512
	res := run(t, Config{NumProcs: nProcs, NumUnits: 0}, func(id int) Stepper {
		var ops []op
		for i := 0; i < 50; i++ {
			ops = append(ops, opSend(Send{To: (id + 1) % nProcs, Payload: i}), opDo(func(p *Proc) { p.Drain() }))
		}
		return steps(ops...)
	})
	if res.Messages != nProcs*50 {
		t.Fatalf("messages = %d, want %d", res.Messages, nProcs*50)
	}
}

func TestCrashDuringSleepDoesNotWakeOthersSpuriously(t *testing.T) {
	// Process 1 sleeps to round 100; its crash at round 10 must not change
	// process 0's timeline.
	adv := &schedAdversary{at: map[int64][]int{10: {1}}}
	res := run(t, Config{NumProcs: 2, NumUnits: 0, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return steps(opWait(30, func(p *Proc, _ []Message) {
				if p.Now() != 30 {
					t.Errorf("woke at %d", p.Now())
				}
			}))
		}
		return steps(opWait(100, nil))
	})
	if res.PerProc[1].Status != StatusCrashed {
		t.Fatal("proc 1 should have crashed")
	}
}

func TestZeroProcesses(t *testing.T) {
	res, err := NewStepper(Config{NumProcs: 0, NumUnits: 0}, func(int) Stepper {
		return steps()
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || !res.Complete() {
		t.Fatalf("empty run: %+v", res)
	}
}

func TestSelfSendDelivery(t *testing.T) {
	// A process may send to itself; the message arrives next round.
	var got bool
	run(t, Config{NumProcs: 1, NumUnits: 0}, func(int) Stepper {
		return steps(opSend(Send{To: 0, Payload: "me"}), opWait(5, func(_ *Proc, msgs []Message) {
			got = len(msgs) == 1 && msgs[0].Payload == "me"
		}))
	})
	if !got {
		t.Fatal("self-send not delivered")
	}
}
