// Package adversary provides fault strategies for the synchronous simulator:
// fault plans as replayable values (a decision Vector over crashes,
// restarts, send omissions, drops and slowdowns, with its text grammar, and
// Schedule, a crash list replayed by the same interpreter), seeded random
// crashes and message loss, rate slowdowns, and the crash-after-work
// cascade behind the paper's worst cases.
package adversary

import (
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// None is the failure-free adversary.
func None() sim.Adversary { return sim.NopAdversary{} }

// Random crashes each committed action with probability P, up to MaxCrashes
// failures. On a crash, the work unit survives with probability 1/2 and each
// outgoing message is transmitted with probability 1/2, modelling arbitrary
// crash points inside a round. Runs are reproducible for a fixed seed.
type Random struct {
	sim.NopAdversary
	rng        *rand.Rand
	p          float64
	maxCrashes int
	crashed    int
}

var _ sim.Adversary = (*Random)(nil)

// NewRandom builds a Random adversary; maxCrashes should be at most t-1 to
// preserve the one-survivor guarantee.
func NewRandom(p float64, maxCrashes int, seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed)), p: p, maxCrashes: maxCrashes}
}

// OnAction implements sim.Adversary. The Deliver mask covers the action's
// virtual send list (explicit sends, then the broadcast per recipient), so
// broadcast-native actions draw exactly the same random verdicts as their
// per-send expansion.
func (r *Random) OnAction(_ int64, _ int, a sim.Action) sim.Verdict {
	if r.crashed >= r.maxCrashes || r.rng.Float64() >= r.p {
		return sim.Survive()
	}
	r.crashed++
	v := sim.Verdict{Crash: true, KeepWork: r.rng.Intn(2) == 0}
	if n := a.SendCount(); n > 0 {
		v.Deliver = make([]bool, n)
		for i := range v.Deliver {
			v.Deliver[i] = r.rng.Intn(2) == 0
		}
	}
	return v
}

// Crashes reports how many failures have been injected so far.
func (r *Random) Crashes() int { return r.crashed }

// Loss drops each transmitted message at delivery time with probability P,
// up to MaxDrops losses, modelling transient link faults: the sender paid
// for the message (it counts in Result.Messages) but the recipient never
// sees it. Runs are reproducible for a fixed seed; the rng stream is
// consumed one draw per delivery in delivery order, so the same seed yields
// the same lost set on every conforming execution plane.
type Loss struct {
	sim.NopAdversary
	rng      *rand.Rand
	p        float64
	maxDrops int
	dropped  int
}

var _ sim.DeliveryAdversary = (*Loss)(nil)

// NewLoss builds a Loss adversary dropping with probability p, at most
// maxDrops times.
func NewLoss(p float64, maxDrops int, seed int64) *Loss {
	return &Loss{rng: rand.New(rand.NewSource(seed)), p: p, maxDrops: maxDrops}
}

// OnDeliver implements sim.DeliveryAdversary.
func (l *Loss) OnDeliver(_ int64, _ sim.Message) bool {
	if l.dropped >= l.maxDrops || l.rng.Float64() >= l.p {
		return true
	}
	l.dropped++
	return false
}

// Dropped reports how many messages have been lost so far.
func (l *Loss) Dropped() int { return l.dropped }

// Slowdown degrades one process to rate 1/Factor from its first committed
// action at or after round Round: each later action is followed by Factor-1
// stalled rounds (the quarter-speed workstation of the model's rate
// discussion, for Factor 4). The verdict fires once; the engine keeps the
// factor until another verdict changes it.
type Slowdown struct {
	sim.NopAdversary
	PID    int
	Round  int64
	Factor int
	fired  bool
}

var _ sim.Adversary = (*Slowdown)(nil)

// OnAction implements sim.Adversary.
func (s *Slowdown) OnAction(r int64, pid int, _ sim.Action) sim.Verdict {
	if s.fired || pid != s.PID || r < s.Round {
		return sim.Survive()
	}
	s.fired = true
	return sim.Verdict{Slow: s.Factor}
}

// Cascade is the work-wasting adversary behind the worst cases of §2: it
// lets each process perform Units units of work and then crashes it at its
// next send, suppressing the entire broadcast. The work is kept but never
// reported, so every successor must redo it. MaxCrashes bounds the failures
// (use t-1 to preserve a survivor).
type Cascade struct {
	sim.NopAdversary
	units      int
	maxCrashes int
	crashed    int
	work       []int // per-PID work counters, grown on demand
}

var _ sim.Adversary = (*Cascade)(nil)

// NewCascade builds a Cascade adversary.
func NewCascade(units, maxCrashes int) *Cascade {
	return &Cascade{units: units, maxCrashes: maxCrashes}
}

// OnAction implements sim.Adversary.
func (c *Cascade) OnAction(_ int64, pid int, a sim.Action) sim.Verdict {
	if a.WorkUnit > 0 {
		for pid >= len(c.work) {
			c.work = append(c.work, 0)
		}
		c.work[pid]++
	}
	if c.crashed >= c.maxCrashes {
		return sim.Survive()
	}
	if a.SendCount() > 0 && pid < len(c.work) && c.work[pid] >= c.units {
		c.crashed++
		return sim.Verdict{Crash: true, KeepWork: true}
	}
	return sim.Survive()
}

// Crashes reports how many failures have been injected so far.
func (c *Cascade) Crashes() int { return c.crashed }

// Chain composes several adversaries; the first non-surviving verdict
// (crash, omission or slowdown) wins, scheduled crashes and restarts are
// unioned, and a delivery goes through only if every member lets it.
type Chain struct {
	Advs []sim.Adversary
}

var (
	_ sim.Adversary         = (*Chain)(nil)
	_ sim.DeliveryAdversary = (*Chain)(nil)
	_ sim.Restarter         = (*Chain)(nil)
)

// NewChain composes adversaries.
func NewChain(advs ...sim.Adversary) *Chain { return &Chain{Advs: advs} }

// OnAction implements sim.Adversary.
func (c *Chain) OnAction(r int64, pid int, a sim.Action) sim.Verdict {
	for _, adv := range c.Advs {
		if v := adv.OnAction(r, pid, a); v.Crash || v.Omit || v.Slow > 0 {
			return v
		}
	}
	return sim.Survive()
}

// OnDeliver implements sim.DeliveryAdversary. Every delivery-aware member is
// consulted on every delivery — no short-circuit — so each member's rng
// stream advances identically whatever the others decide, keeping composed
// seeded adversaries replayable.
func (c *Chain) OnDeliver(r int64, m sim.Message) bool {
	ok := true
	for _, adv := range c.Advs {
		if d, isD := adv.(sim.DeliveryAdversary); isD && !d.OnDeliver(r, m) {
			ok = false
		}
	}
	return ok
}

// ScheduledRestarts implements sim.Restarter.
func (c *Chain) ScheduledRestarts(r int64) []int {
	var pids []int
	for _, adv := range c.Advs {
		if rs, isR := adv.(sim.Restarter); isR {
			pids = append(pids, rs.ScheduledRestarts(r)...)
		}
	}
	sort.Ints(pids)
	return pids
}

// NextScheduledRestart implements sim.Restarter.
func (c *Chain) NextScheduledRestart(after int64) int64 {
	next := int64(-1)
	for _, adv := range c.Advs {
		rs, isR := adv.(sim.Restarter)
		if !isR {
			continue
		}
		if n := rs.NextScheduledRestart(after); n >= 0 && (next < 0 || n < next) {
			next = n
		}
	}
	return next
}

// ScheduledCrashes implements sim.Adversary.
func (c *Chain) ScheduledCrashes(r int64) []int {
	var pids []int
	for _, adv := range c.Advs {
		pids = append(pids, adv.ScheduledCrashes(r)...)
	}
	sort.Ints(pids)
	return pids
}

// NextScheduledCrash implements sim.Adversary.
func (c *Chain) NextScheduledCrash(after int64) int64 {
	next := int64(-1)
	for _, adv := range c.Advs {
		if n := adv.NextScheduledCrash(after); n >= 0 && (next < 0 || n < next) {
			next = n
		}
	}
	return next
}
