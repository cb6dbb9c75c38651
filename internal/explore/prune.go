package explore

// Prefix-equivalence pruning. The enumeration orders (vectorAt, canonDecode)
// vary the last victim's choice fastest, so the walk visits sibling blocks:
// m consecutive indices that share a parent vector P (the leading k-1
// choices) and differ only in the last victim v's choice c. The adversaries
// of P and P+{c} make identical decisions until c first fires — v carries no
// choice in P, so every other verdict coincides — which yields two sound,
// exact replay-sharing rules, both decidable from one profiled replay of P:
//
//   - Never fires: if c's trigger provably never occurs in P's run (an
//     action ordinal past v's committed actions, a round past the run's
//     last, a slowdown round past v's last commit, a drop index past v's
//     deliveries), then P+{c}'s execution IS P's execution. The child is
//     certified from P's result without replaying — and it is collapsed by
//     definition (a crash choice leaves Result.Crashes short; omission,
//     slowdown and drop choices count as unfired faults).
//   - Sibling equivalence: two firing choices with the same effective
//     behaviour produce identical executions. Keep-work equals lose-work
//     when v's trigger action carries no work unit; delivery prefixes clamp
//     at the trigger action's real send count (the excess only sets the
//     over-delivery collapse marker); slowdown rounds collapse onto the
//     first commit of v at or after them. The first such sibling's replay is
//     cached per block and reused, with the collapse marker recomputed per
//     vector.
//
// Pruning never changes a report: certifications are synthesized to be
// byte-identical to a direct replay's (the property tests enumerate with
// and without pruning and require reflect.DeepEqual modulo the EngineRuns
// counter). Profiles come from a profiling wrapper around the universal
// adversary, so the engine is untouched.

import "repro/internal/sim"

// runProfile is what one profiled replay of a parent vector records about
// the block's varying victim.
type runProfile struct {
	pid int
	// Per committed action of pid, in commit order: the virtual send count,
	// whether the action carried a work unit, and the commit round
	// (non-decreasing).
	sendCount []int
	hasWork   []bool
	rounds    []int64
	// delivered counts messages bound for pid over the whole run (pid has
	// no drop choice in the parent, so none of them were lost).
	delivered int
}

// reset clears the profile for a replay observing pid, keeping its buffers.
func (pr *runProfile) reset(pid int) {
	pr.pid = pid
	pr.sendCount = pr.sendCount[:0]
	pr.hasWork = pr.hasWork[:0]
	pr.rounds = pr.rounds[:0]
	pr.delivered = 0
}

// profilingAdversary delegates every verdict to the wrapped universal
// adversary unchanged, recording the profile on the way through. Embedding
// promotes the Restarter and scheduled-crash methods.
type profilingAdversary struct {
	*Adversary
	prof *runProfile
}

var (
	_ sim.Adversary         = (*profilingAdversary)(nil)
	_ sim.DeliveryAdversary = (*profilingAdversary)(nil)
	_ sim.Restarter         = (*profilingAdversary)(nil)
)

// OnAction implements sim.Adversary.
func (p *profilingAdversary) OnAction(round int64, pid int, act sim.Action) sim.Verdict {
	if pid == p.prof.pid {
		p.prof.sendCount = append(p.prof.sendCount, act.SendCount())
		p.prof.hasWork = append(p.prof.hasWork, act.WorkUnit != 0)
		p.prof.rounds = append(p.prof.rounds, round)
	}
	return p.Adversary.OnAction(round, pid, act)
}

// OnDeliver implements sim.DeliveryAdversary.
func (p *profilingAdversary) OnDeliver(round int64, m sim.Message) bool {
	if m.To == p.prof.pid {
		p.prof.delivered++
	}
	return p.Adversary.OnDeliver(round, m)
}

// effKey identifies a firing choice's effective behaviour within one
// sibling block: choices with equal keys replay identically. Space-decoded
// choices never carry Bits masks or action-crash restarts, so those fields
// do not appear.
type effKey struct {
	kind byte // 'c' action crash, 'o' omission, 's' slowdown
	// at is the trigger action ordinal (crash/omission) or the ordinal of
	// the victim's first commit at or after the slowdown round.
	at     int
	keep   bool // effective keep-work: KeepWork and the action has a unit
	prefix int  // effective delivery prefix: min(Prefix, send count)
	factor int  // slowdown factor
}

// classify decides the varying choice's fate against the profiled parent
// run: fires reports whether the trigger occurs at all; for firing choices
// that admit sibling dedup, dedup is true and key/overDel carry the
// effective key and whether this vector's delivery prefix over-ran the send
// list. parentRounds is the parent result's last round.
func (pr *runProfile) classify(c *Choice, parentRounds int64) (fires bool, key effKey, overDel, dedup bool) {
	switch {
	case c.DropNth > 0:
		return pr.delivered >= c.DropNth, effKey{}, false, false
	case c.Slow > 0:
		// Fires at the victim's first commit at or after round c.Round.
		for i, r := range pr.rounds {
			if r >= c.Round {
				return true, effKey{kind: 's', at: i, factor: c.Slow}, false, true
			}
		}
		return false, effKey{}, false, false
	case c.AtAction <= 0:
		// Round crash (with or without restart): fires only while the run
		// is still live. Conservative — r <= parentRounds replays directly.
		return c.Round <= parentRounds, effKey{}, false, false
	case c.Bits:
		// Bitmask deliveries are a fuzzer surface, not a space product;
		// replay directly if one ever shows up here.
		if c.AtAction > len(pr.sendCount) {
			return false, effKey{}, false, false
		}
		return true, effKey{}, false, false
	default:
		a := c.AtAction
		if a > len(pr.sendCount) {
			return false, effKey{}, false, false
		}
		sc := pr.sendCount[a-1]
		eff := min(c.Prefix, sc)
		overDel = c.Prefix > sc
		if c.Omit {
			return true, effKey{kind: 'o', at: a, prefix: eff}, overDel, true
		}
		keep := c.KeepWork && pr.hasWork[a-1]
		return true, effKey{kind: 'c', at: a, keep: keep, prefix: eff}, overDel, true
	}
}

// cachedRun is one sibling's replay retained for effKey-equal reuse.
// overDel is the run adversary's full over-delivery flag (other choices OR
// the filler's own); ownOverDel isolates the filler's own contribution so a
// reuse can recompute the flag for its own prefix: when the filler's own
// contribution is false, others = overDel exactly; when it is true, the
// entry only serves siblings whose own contribution is also true.
type cachedRun struct {
	res        sim.Result
	err        error
	overDel    bool
	unfired    bool
	ownOverDel bool
}

// usableFor reports whether the cached replay can label a sibling whose own
// over-delivery flag is ownOverDel.
func (cr *cachedRun) usableFor(ownOverDel bool) bool {
	return !cr.ownOverDel || ownOverDel
}

// collapsedFor recomputes the sibling's collapse marker from the cached
// replay: crash shortfall and unfired faults are execution facts shared by
// the whole equivalence class; over-delivery is the one per-vector bit.
func (cr *cachedRun) collapsedFor(vec Vector, ownOverDel bool) bool {
	return cr.res.Crashes < vec.Crashes() || cr.overDel || ownOverDel || cr.unfired
}
