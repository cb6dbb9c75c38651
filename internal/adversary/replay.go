package adversary

import (
	"slices"

	"repro/internal/sim"
)

// replay interprets a fault plan: a list of choices, each with its own
// progress counter. It answers every hook but OnDeliver, so a Schedule,
// which embeds it bare, is a Restarter and not a DeliveryAdversary; the
// vector Adversary adds the delivery hook. It is stateful: one replay
// drives one run.
type replay struct {
	choices []Choice
	// masks, when non-nil, holds per choice an explicit Deliver mask that
	// replaces the choice's Prefix/Mask selection (a Schedule's Crash.Deliver,
	// honoured as given).
	masks [][]bool
	// seen is each choice's progress, by choice index: the victim's committed
	// actions for an action trigger, deliveries to the victim for a drop, and
	// 1 once a slowdown has fired.
	seen []int64
	// observableFired counts fired omission, slowdown and drop choices —
	// the kinds whose firing the adversary itself witnesses (crash firing is
	// visible to callers through sim.Result.Crashes instead).
	observableFired int
	// overDelivered records that some fired choice's delivery selection
	// extended past the action's real send list — the execution coincides
	// with the canonically smaller choice truncated to the send count.
	overDelivered bool

	// Buffers reused across calls and runs: the round core consumes a
	// scheduled-crash or restart list, and reads a verdict's Deliver mask,
	// before it consults the adversary again.
	crashes  []int
	restarts []int
	mask     []bool
}

// reset rearms the replay to run vec from round 0, keeping its buffers
// (appending a make'd slice reuses seen's array and allocates nothing extra).
func (a *replay) reset(vec Vector) {
	a.choices = vec
	a.seen = append(a.seen[:0], make([]int64, len(vec))...)
	a.observableFired = 0
	a.overDelivered = false
}

// isRoundCrash reports whether the choice is a round-triggered crash (the
// only kind the ScheduledCrashes path may announce: slowdowns and drops also
// carry round/zero fields but are not crashes).
func (c *Choice) isRoundCrash() bool {
	return c.AtAction <= 0 && c.Slow == 0 && c.DropNth == 0
}

// isRoundRestart reports whether the choice is a round-triggered crash with
// a restart (an action crash's restart rides its verdict).
func (c *Choice) isRoundRestart() bool { return c.isRoundCrash() && c.RestartAt > 0 }

// deliverMask builds the Deliver mask for choice i against an action with n
// virtual sends, recording over-delivery: the first Prefix sends, or with
// Bits the set bits of Mask. The mask is the replay's buffer, valid until
// its next verdict.
func (a *replay) deliverMask(i, n int) []bool {
	if a.masks != nil && a.masks[i] != nil {
		return a.masks[i]
	}
	c := &a.choices[i]
	width, over := min(c.Prefix, n), c.Prefix > n
	if c.Bits {
		width = min(n, 64)
		over = c.Mask>>uint(width) != 0
	}
	a.overDelivered = a.overDelivered || over
	if width == 0 || c.Bits && c.Mask == 0 {
		return nil
	}
	a.mask = a.mask[:0]
	for j := range width {
		a.mask = append(a.mask, !c.Bits || c.Mask>>uint(j)&1 == 1)
	}
	return a.mask
}

// OnAction implements sim.Adversary. The scan runs from the back, so when a
// Schedule holds two action crashes for one PID the later one counts.
func (a *replay) OnAction(round int64, pid int, act sim.Action) sim.Verdict {
	for i := len(a.choices) - 1; i >= 0; i-- {
		c := &a.choices[i]
		if c.Victim != pid {
			continue
		}
		if c.Slow > 0 {
			if round >= c.Round && a.seen[i] == 0 {
				a.seen[i] = 1
				a.observableFired++
				return sim.Verdict{Slow: c.Slow}
			}
			continue
		}
		if c.AtAction <= 0 {
			continue // round crash or drop: not an action trigger
		}
		a.seen[i]++
		if a.seen[i] != int64(c.AtAction) {
			return sim.Survive()
		}
		deliver := a.deliverMask(i, act.SendCount())
		if c.Omit {
			a.observableFired++
			return sim.Verdict{Omit: true, Deliver: deliver}
		}
		return sim.Verdict{Crash: true, KeepWork: c.KeepWork, Deliver: deliver, RestartAt: c.RestartAt}
	}
	return sim.Survive()
}

// ScheduledCrashes implements sim.Adversary. The list is the replay's
// buffer, valid until the next call; nil when no crash is scheduled.
func (a *replay) ScheduledCrashes(r int64) []int {
	a.crashes = a.crashes[:0]
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundCrash() && c.Round == r {
			a.crashes = append(a.crashes, c.Victim)
		}
	}
	return sortedOrNil(a.crashes)
}

// NextScheduledCrash implements sim.Adversary.
func (a *replay) NextScheduledCrash(after int64) int64 {
	next := int64(-1)
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundCrash() && c.Round > after && (next < 0 || c.Round < next) {
			next = c.Round
		}
	}
	return next
}

// ScheduledRestarts implements sim.Restarter: round-crash choices carrying a
// restart round. (Action-crash restarts travel in the crash verdict itself.)
// Like ScheduledCrashes, the list is a buffer valid until the next call.
func (a *replay) ScheduledRestarts(r int64) []int {
	a.restarts = a.restarts[:0]
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundRestart() && c.RestartAt == r {
			a.restarts = append(a.restarts, c.Victim)
		}
	}
	return sortedOrNil(a.restarts)
}

// NextScheduledRestart implements sim.Restarter.
func (a *replay) NextScheduledRestart(after int64) int64 {
	next := int64(-1)
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundRestart() && c.RestartAt > after && (next < 0 || c.RestartAt < next) {
			next = c.RestartAt
		}
	}
	return next
}

// sortedOrNil sorts a scheduled-PID list in place, mapping empty to nil.
func sortedOrNil(pids []int) []int {
	if len(pids) == 0 {
		return nil
	}
	slices.Sort(pids)
	return pids
}

// Adversary is the universal choice-sequence adversary: a sim.Adversary
// (plus sim.DeliveryAdversary and sim.Restarter) driven entirely by a
// decision vector, so that any fault schedule is a replayable value. It is
// stateful: one adversary replays one run. Vector.Adversary builds a fresh
// one; a caller replaying many vectors rewinds one with Reset instead.
type Adversary struct {
	replay
}

var (
	_ sim.Adversary         = (*Adversary)(nil)
	_ sim.DeliveryAdversary = (*Adversary)(nil)
	_ sim.Restarter         = (*Adversary)(nil)
)

// Adversary builds a fresh universal adversary replaying the vector.
func (v Vector) Adversary() *Adversary {
	a := &Adversary{}
	a.Reset(v)
	return a
}

// Reset rearms the adversary to replay vec from round 0, keeping its
// buffers: a reset adversary is indistinguishable from vec.Adversary().
func (a *Adversary) Reset(vec Vector) { a.reset(vec) }

// OnDeliver implements sim.DeliveryAdversary: the DropNth-th delivery bound
// for a drop choice's victim is lost in transit.
func (a *Adversary) OnDeliver(_ int64, m sim.Message) bool {
	for i := range a.choices {
		c := &a.choices[i]
		if c.DropNth <= 0 || c.Victim != m.To {
			continue
		}
		a.seen[i]++
		if a.seen[i] == int64(c.DropNth) {
			a.observableFired++
			return false
		}
	}
	return true
}

// OverDelivered reports whether a fired choice selected delivery entries
// past the action's send list, i.e. the run coincides with a canonically
// smaller delivery choice.
func (a *Adversary) OverDelivered() bool { return a.overDelivered }

// UnfiredFaults reports whether some omission, slowdown or drop choice never
// fired (the victim retired first, or the drop index outran the victim's
// deliveries) — the execution coincides with a smaller vector's. Crash
// choices are excluded; compare sim.Result.Crashes with Vector.Crashes for
// those.
func (a *Adversary) UnfiredFaults() bool {
	observable := 0
	for i := range a.choices {
		if c := &a.choices[i]; c.Omit || c.Slow > 0 || c.DropNth > 0 {
			observable++
		}
	}
	return a.observableFired < observable
}

// Crash describes one planned failure. Exactly one of Round / AtAction
// selects the trigger:
//   - Round >= 0 crashes the process at the start of that round (even while
//     it sleeps);
//   - AtAction > 0 crashes the process as it commits its AtAction-th action,
//     with KeepWork and Deliver controlling what survives of that action.
type Crash struct {
	PID      int
	Round    int64
	AtAction int
	KeepWork bool
	Deliver  []bool
	// RestartAt > 0 schedules a crash-recovery restart at that round. The
	// process must be sim.Recoverable and the restart round must come after
	// the crash, or the request is ignored and the process stays down.
	RestartAt int64
}

// Schedule executes a fixed list of planned crashes and their restarts: the
// vector replay without the delivery hook.
type Schedule struct {
	replay
}

var (
	_ sim.Adversary = (*Schedule)(nil)
	_ sim.Restarter = (*Schedule)(nil)
)

// NewSchedule builds a Schedule from planned crashes. Unlike a Vector, the
// plan may name a PID more than once: round crashes all fire, and of two
// action crashes for one PID the later one counts (a recovered process may
// crash again, but only through a round trigger). A Deliver mask is used as
// given; a round crash's restart at or before its round is dropped.
func NewSchedule(crashes ...Crash) *Schedule {
	vec := make(Vector, len(crashes))
	s := &Schedule{}
	s.masks = make([][]bool, len(crashes))
	for i, c := range crashes {
		vec[i] = Choice{Victim: c.PID, AtAction: c.AtAction, Round: c.Round, KeepWork: c.KeepWork, RestartAt: c.RestartAt}
		if c.AtAction <= 0 && c.RestartAt <= c.Round {
			vec[i].RestartAt = 0
		}
		s.masks[i] = c.Deliver
	}
	s.reset(vec)
	return s
}
