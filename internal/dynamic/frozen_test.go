package dynamic

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

// viewHolder wraps a site and holds every view it publishes, as a
// recipient buffering the payload would, with a copy of its contents at
// publication.
type viewHolder struct {
	*site
	held     []*View
	want     []View
	restores int
}

func (h *viewHolder) Step(p *sim.Proc) sim.Yield {
	y := h.site.Step(p)
	if v, ok := y.Action.Broadcast.Payload.(*View); ok {
		h.held = append(h.held, v)
		h.want = append(h.want, View{Phase: v.Phase, Dec: v.Dec,
			Known: slices.Clone(v.Known), Done: slices.Clone(v.Done), T: slices.Clone(v.T)})
	}
	return y
}

func (h *viewHolder) Restore(s any) {
	h.restores++
	h.site.Restore(s)
}

// TestDynamicPublishedViewsFrozen holds every view site 0 of a long
// dynamic run publishes while it steps on: merges of its peers' views and
// adoptions of decided ones, with peers crashing, enough
// publications to roll over its view slab and every slab of its arena, a
// crash with a restore from its checkpoint, and a rewind of every site to
// its pristine snapshot followed by a second run on the same slabs. No
// held view may change, and the rewound run must replay the first.
func TestDynamicPublishedViewsFrozen(t *testing.T) {
	const (
		n, procs, phases = 512, 8, 40
		wordsSlab        = 512 // the arena's largest words slab
		viewsSlab        = 64  // the largest box slab
	)
	inj := make([]Injection, n)
	for u := 1; u <= n; u++ {
		inj[u-1] = Injection{Phase: 1 + (u-1)%(phases-1), Process: (u - 1) % procs, Unit: u}
	}
	steppers, err := Steppers(Config{T: procs, Units: n, Phases: phases, Injections: inj})
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*site, procs)
	pristine := make([]any, procs)
	for id := range sites {
		sites[id] = steppers(id).(*site)
		pristine[id] = sites[id].Snapshot()
	}
	h := &viewHolder{site: sites[0]}
	body := func(id int) sim.Stepper {
		if id == 0 {
			return h
		}
		return sites[id]
	}
	adv := func() sim.Adversary {
		// Two peers crash; site 0 crashes late in the run and restarts from
		// its checkpoint, behind the others. (A restarted site that hears
		// no peer in its phase decides alone and publishes to no one.)
		return adversary.NewSchedule(adversary.Crash{PID: 0, AtAction: 150, RestartAt: 170},
			adversary.Crash{PID: 5, Round: 80}, adversary.Crash{PID: 6, Round: 120})
	}
	var first sim.Result
	for run := 0; run < 2; run++ {
		if run > 0 {
			for id := range sites {
				body(id).(sim.Recoverable).Restore(pristine[id])
			}
		}
		res, err := core.RunSteppers(n, procs, body, core.RunOptions{Adversary: adv()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Survivors == 0 || res.Restarts == 0 {
			t.Fatalf("run %d: %d survivors, %d restarts", run, res.Survivors, res.Restarts)
		}
		if run == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("rewound run diverges from the first:\nfirst: %+v\nnow:   %+v", first, res)
		}
	}
	if h.restores < 3 {
		t.Fatalf("site 0 restored %d times, want a crash restore in each run and a rewind", h.restores)
	}
	words := 0
	for _, v := range h.want {
		words += len(v.Known) + len(v.Done) + len(v.T)
	}
	if len(h.held) <= viewsSlab || words <= wordsSlab {
		t.Fatalf("site 0 published %d views of %d words, not enough to roll over a %d-view and a %d-word slab",
			len(h.held), words, viewsSlab, wordsSlab)
	}
	for i, v := range h.held {
		if !reflect.DeepEqual(*v, h.want[i]) {
			t.Fatalf("held view %d of %d changed after publication:\nnow:  %+v\nwant: %+v", i, len(h.held), *v, h.want[i])
		}
	}
	if reflect.DeepEqual(h.want[0], h.want[len(h.want)-1]) {
		t.Fatal("site 0 published one view only: its sets never moved on")
	}
	t.Logf("%d views of %d words held; %d restores", len(h.held), words, h.restores)
}
