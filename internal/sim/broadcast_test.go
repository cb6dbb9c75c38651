package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// subsetAdversary crashes one PID at its first sending action, delivering
// the given Deliver mask over the action's virtual send list.
type subsetAdversary struct {
	NopAdversary
	pid     int
	deliver []bool
	fired   bool
}

func (a *subsetAdversary) OnAction(_ int64, pid int, act Action) Verdict {
	if a.fired || pid != a.pid || act.SendCount() == 0 {
		return Survive()
	}
	a.fired = true
	return Verdict{Crash: true, KeepWork: true, Deliver: a.deliver}
}

// TestBroadcastDelivery pins the record plane's visible semantics: one
// broadcast reaches every recipient except the sender, one round later,
// as ordinary per-sender-ordered messages carrying the same payload.
func TestBroadcastDelivery(t *testing.T) {
	const n = 4
	got := make([][]Message, n)
	res, err := NewStepper(Config{NumProcs: n, DetailedMetrics: true}, func(id int) Stepper {
		if id == 0 {
			// Recipient list includes the sender: it must be filtered.
			return steps(opBroadcast([]int{0, 1, 2, 3}, "cp"))
		}
		return steps(opWait(2, func(_ *Proc, msgs []Message) { got[id] = append(got[id], msgs...) }))
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 3 {
		t.Fatalf("Messages = %d, want 3 (self filtered)", res.Messages)
	}
	if res.MessagesByKind["string"] != 3 {
		t.Fatalf("MessagesByKind = %v, want string:3", res.MessagesByKind)
	}
	if res.PerProc[0].Sent != 3 {
		t.Fatalf("sender Sent = %d, want 3", res.PerProc[0].Sent)
	}
	for id := 1; id < n; id++ {
		if len(got[id]) != 1 {
			t.Fatalf("proc %d received %d messages, want 1", id, len(got[id]))
		}
		m := got[id][0]
		if m.From != 0 || m.To != id || m.SentAt != 0 || m.Payload != "cp" {
			t.Fatalf("proc %d got %+v", id, m)
		}
	}
}

// TestBroadcastCrashSubset drives a crash-mid-broadcast verdict against the
// shared record: the Deliver mask applies per recipient, so an arbitrary
// subset of the recipients receives the message.
func TestBroadcastCrashSubset(t *testing.T) {
	const n = 5
	adv := &subsetAdversary{pid: 0, deliver: []bool{true, false, true, false}}
	heard := make([]bool, n)
	res, err := NewStepper(Config{NumProcs: n, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return steps(opBroadcast([]int{1, 2, 3, 4}, "boom"))
		}
		return steps(opWait(2, func(_ *Proc, msgs []Message) { heard[id] = len(msgs) > 0 }))
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", res.Crashes)
	}
	want := []bool{false, true, false, true, false}
	if !reflect.DeepEqual(heard, want) {
		t.Fatalf("heard = %v, want %v", heard, want)
	}
	// The surviving subset counts as transmitted messages.
	if res.Messages != 2 {
		t.Fatalf("Messages = %d, want 2", res.Messages)
	}
}

// TestBroadcastCrashSubsetMixed covers a Deliver mask spanning explicit
// sends and a broadcast in one action: indices cover Sends first, then the
// broadcast per recipient.
func TestBroadcastCrashSubsetMixed(t *testing.T) {
	const n = 4
	adv := &subsetAdversary{pid: 0, deliver: []bool{false, true, true}}
	heard := make([]int, n)
	_, err := NewStepper(Config{NumProcs: n, Adversary: adv}, func(id int) Stepper {
		if id == 0 {
			return steps(op{act: func(p *Proc) Action {
				return Action{
					Sends:     []Send{{To: 1, Payload: "pt"}},
					Broadcast: p.BroadcastTo([]int{2, 3}, "bc"),
				}
			}})
		}
		return steps(opWait(2, func(_ *Proc, msgs []Message) { heard[id] = len(msgs) }))
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if heard[1] != 0 || heard[2] != 1 || heard[3] != 1 {
		t.Fatalf("heard = %v, want [_ 0 1 1]", heard)
	}
}

// TestBroadcastInvalidPID mirrors the flat plane's failure semantics.
func TestBroadcastInvalidPID(t *testing.T) {
	_, err := NewStepper(Config{NumProcs: 2}, func(id int) Stepper {
		if id == 0 {
			return steps(opBroadcast([]int{1, 9}, "x"))
		}
		return steps()
	}).Run()
	if err == nil {
		t.Fatal("want invalid-pid error")
	}
}

// TestMessagesByKindTally: the run-length per-kind tally lands every counted
// message in MessagesByKind — across commits, senders and kinds, through the
// capped plane's deferred pump, and on the invalid-PID path, where the failing
// broadcast's valid prefix is counted as in Messages.
func TestMessagesByKindTally(t *testing.T) {
	for _, bandwidth := range []int{0, 1} {
		res, err := NewStepper(Config{NumProcs: 3, DetailedMetrics: true, Bandwidth: bandwidth}, func(id int) Stepper {
			switch id {
			case 0:
				return steps(opSend(Send{To: 1, Payload: "a"}), opBroadcast([]int{1, 2}, 7),
					opSend(Send{To: 2, Payload: "b"}), opBroadcast([]int{1, 2, 9}, 1.5))
			case 1:
				return steps(opBroadcast([]int{0, 2}, "c"), opSend(Send{To: 0, Payload: 8}))
			}
			return steps(opWait(10, nil))
		}).Run()
		if err == nil || !strings.Contains(err.Error(), "sim: proc 0 sent to invalid pid 9") {
			t.Fatalf("bandwidth %d: err = %v, want invalid-pid failure", bandwidth, err)
		}
		var sum int64
		for _, c := range res.MessagesByKind {
			sum += c
		}
		if sum != res.Messages {
			t.Fatalf("bandwidth %d: MessagesByKind %v sums to %d, Messages = %d", bandwidth, res.MessagesByKind, sum, res.Messages)
		}
		if bandwidth == 0 {
			want := map[string]int64{"string": 4, "int": 3, "float64": 2}
			if !reflect.DeepEqual(res.MessagesByKind, want) {
				t.Fatalf("MessagesByKind = %v, want %v", res.MessagesByKind, want)
			}
		}
	}
}

// TestActionSendVirtualization pins SendCount/SendAt, which adversaries use
// to see broadcast and flat actions identically.
func TestActionSendVirtualization(t *testing.T) {
	a := Action{
		Sends:     []Send{{To: 7, Payload: "s"}},
		Broadcast: Broadcast{To: []int{1, 2}, Payload: "b"},
	}
	if a.SendCount() != 3 {
		t.Fatalf("SendCount = %d, want 3", a.SendCount())
	}
	want := []Send{{To: 7, Payload: "s"}, {To: 1, Payload: "b"}, {To: 2, Payload: "b"}}
	for i, w := range want {
		if got := a.SendAt(i); got != w {
			t.Fatalf("SendAt(%d) = %+v, want %+v", i, got, w)
		}
	}
}

// ringSteppers is a small deterministic workload exercising sends,
// broadcasts, sleeps and work.
func ringSteppers(n int) func(id int) Stepper {
	to := make([]int, n)
	for i := range to {
		to[i] = i
	}
	nextRound := op{wait: func(p *Proc) int64 { return p.Now() + 1 }}
	return func(id int) Stepper {
		var ops []op
		for round := 0; round < 3; round++ {
			ops = append(ops, opWork(id+round*n+1))
			if id == 0 {
				ops = append(ops, opBroadcast(to, round))
			} else {
				ops = append(ops, opSend(Send{To: (id + 1) % n, Payload: round}))
			}
			ops = append(ops, nextRound)
		}
		return steps(ops...)
	}
}

// TestFlattenBroadcastsEquivalence pins the record plane against its
// per-send expansion on the same workload.
func TestFlattenBroadcastsEquivalence(t *testing.T) {
	cfg := Config{NumProcs: 4, NumUnits: 12, DetailedMetrics: true}
	native, err := NewStepper(cfg, ringSteppers(4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewStepper(cfg, func(id int) Stepper {
		return FlattenBroadcasts(ringSteppers(4)(id))
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(native, flat) {
		t.Fatalf("planes diverge:\nnative: %+v\nflat:   %+v", native, flat)
	}
}

// TestEngineResetDeterminism reuses one engine across runs — same shape,
// grown shape, shrunk shape, and after an aborted run — and requires every
// reused run to equal a fresh engine's Result exactly.
func TestEngineResetDeterminism(t *testing.T) {
	shapes := []Config{
		{NumProcs: 4, NumUnits: 12, DetailedMetrics: true},
		{NumProcs: 7, NumUnits: 21, DetailedMetrics: true}, // grow
		{NumProcs: 2, NumUnits: 6, DetailedMetrics: true},  // shrink
		{NumProcs: 4, NumUnits: 12, DetailedMetrics: true}, // back to start
	}
	eng := NewStepper(shapes[0], ringSteppers(shapes[0].NumProcs))
	for i, cfg := range shapes {
		if i > 0 {
			eng.Reset(cfg, ringSteppers(cfg.NumProcs))
		}
		reused, err := eng.Run()
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		fresh, err := NewStepper(cfg, ringSteppers(cfg.NumProcs)).Run()
		if err != nil {
			t.Fatalf("shape %d fresh: %v", i, err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("shape %d diverges:\nreused: %+v\nfresh:  %+v", i, reused, fresh)
		}
	}

	// Abort a run (round limit), then verify Reset still yields clean state.
	abortCfg := Config{NumProcs: 2, NumUnits: 4, MaxRound: 1}
	eng.Reset(abortCfg, func(int) Stepper {
		return funcStepper(func(*Proc) Yield { return Yield{Kind: YieldAction} })
	})
	if _, err := eng.Run(); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("aborted run err = %v, want ErrRoundLimit", err)
	}
	cfg := shapes[0]
	eng.Reset(cfg, ringSteppers(cfg.NumProcs))
	reused, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewStepper(cfg, ringSteppers(cfg.NumProcs)).Run()
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("post-abort reuse diverges:\nreused: %+v\nfresh:  %+v", reused, fresh)
	}
}
