package core

import (
	"testing"

	"repro/internal/sim"
)

// kindCount crashes process PID as it commits its Nth action that sends a
// payload of kind Kind, delivering the first Prefix entries of the action's
// virtual send list, so a broadcast is truncated per recipient exactly like
// its per-send expansion. It models crashing in the middle of a specific
// checkpoint.
type kindCount struct {
	sim.NopAdversary
	PID, N, Prefix int
	Kind           string
	seen           int
}

// OnAction implements sim.Adversary.
func (k *kindCount) OnAction(_ int64, pid int, a sim.Action) sim.Verdict {
	if pid != k.PID || !sendsKind(a, k.Kind) {
		return sim.Survive()
	}
	if k.seen++; k.seen != k.N {
		return sim.Survive()
	}
	deliver := make([]bool, a.SendCount())
	for i := range min(k.Prefix, len(deliver)) {
		deliver[i] = true
	}
	return sim.Verdict{Crash: true, KeepWork: true, Deliver: deliver}
}

// sendsKind reports whether an entry of the action's virtual send list
// carries a payload of the given kind.
func sendsKind(a sim.Action, kind string) bool {
	for i := range a.SendCount() {
		if p, ok := a.SendAt(i).Payload.(sim.Kinder); ok && p.Kind() == kind {
			return true
		}
	}
	return false
}

func TestKindCountPrefixDelivery(t *testing.T) {
	k := &kindCount{PID: 0, Kind: "full-cp", N: 2, Prefix: 1}
	send := sim.Action{Sends: []sim.Send{
		{To: 1, Payload: FullCP{}},
		{To: 2, Payload: FullCP{}},
		{To: 3, Payload: FullCP{}},
	}}
	if v := k.OnAction(0, 0, send); v.Crash {
		t.Fatal("crashed on first matching send, want second")
	}
	v := k.OnAction(1, 0, send)
	if !v.Crash {
		t.Fatal("want crash on second matching send")
	}
	if !v.Deliver[0] || v.Deliver[1] || v.Deliver[2] {
		t.Fatalf("Deliver = %v, want prefix of 1", v.Deliver)
	}
	// Non-matching kinds don't count.
	k2 := &kindCount{PID: 0, Kind: "full-cp", N: 1}
	other := sim.Action{Sends: []sim.Send{{To: 1, Payload: PartialCP{}}}}
	if v := k2.OnAction(0, 0, other); v.Crash {
		t.Fatal("crashed on non-matching kind")
	}
}
