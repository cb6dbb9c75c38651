package core

import (
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// heldWords is a published word slice and a private copy of it as
// published.
type heldWords struct{ live, want []uint64 }

// recoverable is a protocol machine: every one is a Recoverable Stepper.
type recoverable interface {
	sim.Stepper
	sim.Recoverable
}

// publishHolder wraps a machine and holds every word slice its broadcasts
// publish, as a recipient buffering the payload would.
type publishHolder struct {
	m        recoverable
	held     []heldWords
	restores int
	first    func(payload any) // called with the first published payload
}

func (h *publishHolder) Step(p *sim.Proc) sim.Yield {
	y := h.m.Step(p)
	payload := y.Action.Broadcast.Payload
	switch v := payload.(type) {
	case *Rumor:
		h.hold(v.Done)
	case *DView:
		h.hold(v.S)
		h.hold(v.T)
	default:
		return y
	}
	if h.first != nil {
		h.first(payload)
		h.first = nil
	}
	return y
}

func (h *publishHolder) hold(w []uint64) {
	h.held = append(h.held, heldWords{w, slices.Clone(w)})
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

// TestPublishedViewsFrozen holds every rumor and view process 0 of a gossip
// and a D run publishes — the first D view also as a receiver's buffered
// view for a future phase — while the sender steps on: work, merges of its
// peers' payloads, enough broadcasts to roll over its arena slab, a crash
// with a restore from its checkpoint, and a rewind of every machine to its
// pristine snapshot followed by a second run on the same arenas. No held
// word may change.
func TestPublishedViewsFrozen(t *testing.T) {
	const slabWords = 512 // no words slab is larger for these views
	for _, c := range []struct {
		name  string
		n, t  int
		crash adversary.Crash // of process 0, restarting from its checkpoint
		build func() (func(int) sim.Stepper, error)
	}{
		{"gossip", 2048, 8, adversary.Crash{AtAction: 20, RestartAt: 40}, func() (func(int) sim.Stepper, error) {
			return GossipSteppers(GossipConfig{N: 2048, T: 8})
		}},
		// D's first broadcast is action 1025, after its work phase.
		{"d", 8192, 8, adversary.Crash{AtAction: 1028, RestartAt: 1036}, func() (func(int) sim.Stepper, error) {
			return ProtocolDSteppers(DConfig{N: 8192, T: 8})
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
			var buffered *DView
			if c.name == "d" {
				h.first = func(payload any) {
					// A receiver still before the sender's phase buffers
					// the view by reference.
					v := payload.(*DView)
					st, err := newDState(DConfig{N: c.n, T: c.t})
					if err != nil {
						t.Fatal(err)
					}
					rcv := newDMachine(st, 1)
					p := sim.NewHostedProc(spectatorHost{c.n, c.t}, 1, rcv)
					p.Deliver(sim.Message{From: 0, To: 1, Payload: v})
					if views := rcv.collect(p); len(views) != 0 || len(rcv.buf[v.Phase]) != 1 {
						t.Fatalf("phase-%d view at phase %d: %d current, %d buffered", v.Phase, rcv.phase, len(views), len(rcv.buf[v.Phase]))
					}
					buffered = rcv.buf[v.Phase][0].DView
					h.hold(buffered.S)
					h.hold(buffered.T)
				}
			}
			body := func(id int) sim.Stepper {
				if id == 0 {
					return h
				}
				return machines[id]
			}
			cfg := func() sim.Config {
				// Process 0 crashes after its first broadcasts and restarts;
				// the others crash at random.
				return engineConfig(c.n, c.t, RunOptions{Adversary: adversary.NewChain(
					adversary.NewSchedule(c.crash),
					adversary.NewRandom(0.002, c.t/2, 7),
				)})
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
			words := 0
			for _, hw := range h.held {
				words += len(hw.live)
			}
			switch {
			case c.name == "d" && buffered == nil:
				t.Fatal("no view was buffered")
			case h.restores < 2:
				t.Fatalf("process 0 restored %d times, want a crash restore in each run", h.restores)
			case words <= slabWords:
				t.Fatalf("process 0 published %d words, not enough to roll over a %d-word slab", words, slabWords)
			}
			changed := false
			for i, hw := range h.held {
				if !slices.Equal(hw.live, hw.want) {
					t.Fatalf("held payload slice %d of %d changed after publication", i, len(h.held))
				}
				changed = changed || !slices.Equal(hw.want, h.held[0].want)
			}
			if !changed {
				t.Fatal("process 0 published one view only: its live sets never moved on")
			}
			t.Logf("%d slices, %d words held; %d restores", len(h.held), words, h.restores)
		})
	}
}
