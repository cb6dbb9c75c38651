package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// heldSlice is one published slice, with a check that it still reads as
// published and its contents at publication.
type heldSlice struct {
	typ    string // element type: each has its own arena slab
	n      int
	frozen func() bool
	want   string
}

// recoverable is a protocol machine: every one is a Recoverable Stepper.
type recoverable interface {
	sim.Stepper
	sim.Recoverable
}

// publishHolder wraps a machine and holds every slice its broadcasts and
// reports publish, as a recipient buffering the payload would.
type publishHolder struct {
	m        recoverable
	held     []heldSlice
	restores int
	first    func(payload any) // called with the first published payload
}

func (h *publishHolder) Step(p *sim.Proc) sim.Yield {
	y := h.m.Step(p)
	payload := y.Action.Broadcast.Payload
	if len(y.Action.Sends) == 1 {
		payload = y.Action.Sends[0].Payload
	}
	switch v := payload.(type) {
	case *Rumor:
		hold(h, v.Done)
	case *DView:
		hold(h, v.S)
		hold(h, v.T)
	case COrdinary:
		hold(h, v.View.Faulty)
		hold(h, v.View.Point)
		hold(h, v.View.Round)
	default:
		return y
	}
	if h.first != nil {
		h.first(payload)
		h.first = nil
	}
	return y
}

func hold[T comparable](h *publishHolder, live []T) {
	want := slices.Clone(live)
	h.held = append(h.held, heldSlice{
		typ: fmt.Sprintf("%T", live), n: len(live),
		frozen: func() bool { return slices.Equal(live, want) },
		want:   fmt.Sprint(want),
	})
}

func (h *publishHolder) Snapshot() any { return h.m.Snapshot() }

func (h *publishHolder) Restore(s any) {
	h.restores++
	h.m.Restore(s)
}

// spectatorHost hosts a machine outside any engine, at round 0.
type spectatorHost struct{ n, t int }

func (h spectatorHost) NumProcs() int     { return h.t }
func (h spectatorHost) NumUnits() int     { return h.n }
func (spectatorHost) Round() int64        { return 0 }
func (spectatorHost) SetActive(int, bool) {}

// sourceSlabs is the fewest source slabs any payload kind m publishes has
// drawn: every machine of m's build cuts its arena's slabs from them.
func sourceSlabs(m recoverable) int {
	switch m := m.(type) {
	case *gossipMachine:
		return min(m.arena.src.words.Slabs(), m.arena.src.rumors.Slabs())
	case *dMachine:
		return min(m.arena.src.words.Slabs(), m.arena.src.views.Slabs())
	case *cMachine:
		return m.st.snaps.Slabs()
	}
	panic(fmt.Sprintf("%T publishes no views", m))
}

// TestPublishedViewsFrozen holds every rumor, view and report process 0 of
// a gossip, a D and a C run publishes — the first D view also as a
// receiver's buffered view for a future phase — while the sender steps on:
// work, merges of its peers' payloads, enough publications to roll over
// every slab of its arena and every source slab its build's arenas share,
// a crash with a restore from its checkpoint, and a rewind of every machine
// to its pristine snapshot followed by a second run on the same arenas. No
// held entry may change.
func TestPublishedViewsFrozen(t *testing.T) {
	const slabEntries = 512 // no arena slab is larger for these payloads
	for _, c := range []struct {
		name  string
		n, t  int
		crash adversary.Crash // of process 0, restarting from its checkpoint
		// peersCrash adds random crashes of the other processes.
		peersCrash bool
		build      func() (func(int) sim.Stepper, error)
	}{
		{"gossip", 2048, 8, adversary.Crash{AtAction: 20, RestartAt: 40}, true, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 2048, T: 8})
		}},
		// D's first broadcast is action 1025, after its work phase.
		{"d", 8192, 8, adversary.Crash{AtAction: 1028, RestartAt: 1036}, true, func() (func(int) sim.Stepper, error) {
			return ProtocolDSteppers(DConfig{N: 8192, T: 8})
		}},
		// C's process 0 starts active and reports every unit into G1; the
		// crash keeps its work, so the restored machine's belief that the
		// unit is done holds. The peers stay up: a random crash would hit
		// process 0 first, and at this n the takeover deadlines saturate.
		{"c", 64, 8, adversary.Crash{AtAction: 40, KeepWork: true, RestartAt: 50}, false, func() (func(int) sim.Stepper, error) {
			return protocolCSteppers(CConfig{N: 64, T: 8})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			steppers, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			machines := make([]recoverable, c.t)
			pristine := make([]any, c.t)
			for id := range machines {
				machines[id] = steppers(id).(recoverable)
				pristine[id] = machines[id].Snapshot()
			}
			h := &publishHolder{m: machines[0]}
			var buffered *ebaView
			if c.name == "d" {
				h.first = func(payload any) {
					// A receiver still before the sender's phase buffers
					// the view by reference.
					v := payload.(*DView)
					fresh, err := ProtocolDSteppers(DConfig{N: c.n, T: c.t})
					if err != nil {
						t.Fatal(err)
					}
					rcv := fresh(1).(*dMachine)
					p := sim.NewHostedProc(spectatorHost{c.n, c.t}, 1, rcv)
					p.Deliver(sim.Message{From: 0, To: 1, Payload: v})
					rcv.collect(p)
					if len(rcv.buf) != 1 || rcv.buf[0].phase != v.Phase || rcv.heard[0] {
						t.Fatalf("phase-%d view at phase %d: heard %v, %d buffered", v.Phase, rcv.phase, rcv.heard[0], len(rcv.buf))
					}
					buffered = &rcv.buf[0]
					hold(h, buffered.sets[0])
					hold(h, buffered.t)
				}
			}
			body := func(id int) sim.Stepper {
				if id == 0 {
					return h
				}
				return machines[id]
			}
			cfg := func() sim.Config {
				// Process 0 crashes after its first publications and
				// restarts; the others may crash at random.
				var adv sim.Adversary = adversary.NewSchedule(c.crash)
				if c.peersCrash {
					adv = adversary.NewChain(adv, adversary.NewRandom(0.002, c.t/2, 7))
				}
				return engineConfig(c.n, c.t, RunOptions{Adversary: adv})
			}
			eng := sim.NewStepper(cfg(), body)
			for run := 0; run < 2; run++ {
				if run > 0 {
					for id, m := range machines {
						m.Restore(pristine[id])
					}
					eng.Reset(cfg(), body)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete() {
					t.Fatalf("run %d incomplete: %+v", run, res)
				}
			}
			entries := map[string]int{}
			for _, hs := range h.held {
				entries[hs.typ] += hs.n
			}
			switch {
			case c.name == "d" && buffered == nil:
				t.Fatal("no view was buffered")
			case h.restores < 2:
				t.Fatalf("process 0 restored %d times, want a crash restore in each run", h.restores)
			}
			for typ, n := range entries {
				if n <= slabEntries {
					t.Fatalf("process 0 published %d %s entries, not enough to roll over a %d-entry slab", n, typ, slabEntries)
				}
			}
			if n := sourceSlabs(machines[0]); n < 2 {
				t.Fatalf("the build drew %d source slab for some payload kind, none rolled over", n)
			}
			changed := false
			for i, hs := range h.held {
				if !hs.frozen() {
					t.Fatalf("held payload slice %d of %d changed after publication", i, len(h.held))
				}
				changed = changed || hs.want != h.held[0].want
			}
			if !changed {
				t.Fatal("process 0 published one view only: its live sets never moved on")
			}
			t.Logf("%d slices held, entries per type %v; %d restores; at least %d source slabs per payload kind",
				len(h.held), entries, h.restores, sourceSlabs(machines[0]))
		})
	}
}
