// Package explore is the schedule-space exploration subsystem: it treats a
// fault schedule as an explicit, replayable value — a decision vector of
// (victim, trigger, fault-kind, delivery-mask) choices over the full fault
// alphabet (crash, crash-with-restart, send-omission, message drop, rate
// slowdown) — and spends simulator speed on walking the space of such
// vectors.
//
// Three entry points sit on the same universal adversary:
//
//   - Enumerate DFS-walks every schedule of a Space (up to f crashes, bounded
//     action depth) for small (n, t), certifying the paper's effort bound,
//     the completion guarantee and the at-most-one-active invariant in every
//     single execution. Victim sets are enumerated as combinations (never
//     permutations — the vector is unordered by construction) and delivery
//     choices as prefixes of the crashed action's virtual send list, the two
//     canonicalizations that keep the space polynomial; executions that
//     coincide with a canonically smaller vector's (a planned crash that
//     never fires, a prefix past the real send count) are counted as
//     collapsed but still certified.
//   - Search runs seeded random sampling plus greedy hill-climbing over
//     decision vectors for instances too large to enumerate, maximizing
//     effort, rounds, messages or work, and reports the worst schedule found
//     as a replayable vector.
//   - Certify replays one vector and checks it against the target's bounds.
//
// Shards and candidate batches fan out deterministically via batch.Map over
// the pooled engines behind internal/core's run entry points, so reports are
// byte-identical for every worker count.
package explore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Choice is one planned fault in a decision vector. The fault kind and its
// trigger are determined by the fields set:
//
//   - Crash at action: AtAction > 0, Omit false. The victim crashes as it
//     commits its AtAction-th action. KeepWork decides whether a work unit in
//     the crashed action survives, and the delivery choice selects which
//     entries of the action's virtual send list (sim.Action.SendAt order:
//     explicit sends, then the broadcast per recipient) are transmitted: the
//     first Prefix entries when Bits is false, the set bits of Mask when Bits
//     is true. RestartAt > 0 additionally schedules a crash-recovery restart
//     at that round (ignored by the engine if the crash lands at or after it,
//     or if the process body is not sim.Recoverable).
//   - Crash at round: AtAction == 0, Slow == 0, DropNth == 0. The victim
//     crashes at the start of round Round (even while asleep). RestartAt > 0
//     schedules the restart; it must be a strictly later round.
//   - Send omission: Omit true (requires AtAction > 0). The delivery choice
//     suppresses the unselected sends of the AtAction-th action, but the
//     victim lives on with its work intact.
//   - Slowdown: Slow > 0. From its first committed action at or after round
//     Round, the victim runs at rate 1/Slow (each action is followed by
//     Slow-1 stalled rounds).
//   - Message drop: DropNth > 0. The DropNth-th message delivered to the
//     victim (counting across the whole run) is lost in transit.
type Choice struct {
	Victim   int
	AtAction int
	Round    int64
	KeepWork bool
	Prefix   int
	Bits     bool
	Mask     uint64
	// Omit turns an action-triggered choice into a send-omission fault.
	Omit bool
	// Slow is the rate-degradation factor for a round-triggered slowdown.
	Slow int
	// RestartAt schedules a crash-recovery restart for a crash choice.
	RestartAt int64
	// DropNth selects the victim-bound delivery lost in transit.
	DropNth int
}

// String renders the choice in the grammar accepted by ParseChoice:
// "1@r7" (round crash), "1@r3:restart@r6" (round crash with restart),
// "2@a5:keep:p3" (action crash, prefix delivery), "2@a5:lose:mb" (action
// crash, hex bitmask delivery), "2@a5:lose:p0:restart@r9" (action crash
// with restart), "0@a7:omit:p1" (send omission), "0@r0:slow:4" (slowdown),
// "3@d2" (drop the second delivery to the victim).
func (c Choice) String() string {
	if c.DropNth > 0 {
		return fmt.Sprintf("%d@d%d", c.Victim, c.DropNth)
	}
	if c.Slow > 0 {
		return fmt.Sprintf("%d@r%d:slow:%d", c.Victim, c.Round, c.Slow)
	}
	if c.AtAction <= 0 {
		if c.RestartAt > 0 {
			return fmt.Sprintf("%d@r%d:restart@r%d", c.Victim, c.Round, c.RestartAt)
		}
		return fmt.Sprintf("%d@r%d", c.Victim, c.Round)
	}
	deliv := fmt.Sprintf("p%d", c.Prefix)
	if c.Bits {
		deliv = fmt.Sprintf("m%x", c.Mask)
	}
	if c.Omit {
		return fmt.Sprintf("%d@a%d:omit:%s", c.Victim, c.AtAction, deliv)
	}
	keep := "lose"
	if c.KeepWork {
		keep = "keep"
	}
	if c.RestartAt > 0 {
		return fmt.Sprintf("%d@a%d:%s:%s:restart@r%d", c.Victim, c.AtAction, keep, deliv, c.RestartAt)
	}
	return fmt.Sprintf("%d@a%d:%s:%s", c.Victim, c.AtAction, keep, deliv)
}

// parseRestart parses a "restart@rROUND" suffix part.
func parseRestart(s string) (int64, bool) {
	rest, ok := strings.CutPrefix(s, "restart@r")
	if !ok {
		return 0, false
	}
	r, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || r <= 0 {
		return 0, false
	}
	return r, true
}

// ParseChoice parses the String form.
func ParseChoice(s string) (Choice, error) {
	bad := func() (Choice, error) {
		return Choice{}, fmt.Errorf("explore: bad choice %q: want V@rROUND[:restart@rR|:slow:K], V@aN:keep|lose|omit:pK|mHEX[:restart@rR] or V@dN", s)
	}
	head, rest, ok := strings.Cut(s, "@")
	if !ok || len(rest) < 2 {
		return bad()
	}
	victim, err := strconv.Atoi(head)
	if err != nil || victim < 0 {
		return bad()
	}
	c := Choice{Victim: victim}
	switch rest[0] {
	case 'd':
		n, err := strconv.Atoi(rest[1:])
		if err != nil || n <= 0 {
			return bad()
		}
		c.DropNth = n
		return c, nil
	case 'r':
		parts := strings.Split(rest[1:], ":")
		round, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil || round < 0 {
			return bad()
		}
		c.Round = round
		switch {
		case len(parts) == 1:
			return c, nil
		case len(parts) == 2:
			at, ok := parseRestart(parts[1])
			if !ok || at <= round {
				return bad()
			}
			c.RestartAt = at
			return c, nil
		case len(parts) == 3 && parts[1] == "slow":
			k, err := strconv.Atoi(parts[2])
			if err != nil || k < 1 {
				return bad()
			}
			c.Slow = k
			return c, nil
		}
		return bad()
	case 'a':
		parts := strings.Split(rest[1:], ":")
		if len(parts) != 3 && len(parts) != 4 {
			return bad()
		}
		at, err := strconv.Atoi(parts[0])
		if err != nil || at <= 0 {
			return bad()
		}
		c.AtAction = at
		switch parts[1] {
		case "keep":
			c.KeepWork = true
		case "lose":
		case "omit":
			c.Omit = true
		default:
			return bad()
		}
		if len(parts[2]) < 1 {
			return bad()
		}
		switch parts[2][0] {
		case 'p':
			p, err := strconv.Atoi(parts[2][1:])
			if err != nil || p < 0 {
				return bad()
			}
			c.Prefix = p
		case 'm':
			m, err := strconv.ParseUint(parts[2][1:], 16, 64)
			if err != nil {
				return bad()
			}
			c.Bits, c.Mask = true, m
		default:
			return bad()
		}
		if len(parts) == 4 {
			if c.Omit {
				return bad() // omission never crashes, nothing to restart
			}
			r, ok := parseRestart(parts[3])
			if !ok {
				return bad()
			}
			c.RestartAt = r
		}
		return c, nil
	}
	return bad()
}

// Vector is a decision vector: one complete, replayable fault schedule. A
// victim appears at most once (one planned fault per process), so vectors
// are unordered sets of choices; Validate and the enumerator keep them
// sorted by victim, which is the canonical form.
type Vector []Choice

// String renders the vector as comma-joined choices; the empty vector is
// "-" (the failure-free schedule).
func (v Vector) String() string {
	if len(v) == 0 {
		return "-"
	}
	parts := make([]string, len(v))
	for i, c := range v {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// ParseVector parses the String form ("-" or comma-joined choices).
func ParseVector(s string) (Vector, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "-" {
		return nil, nil
	}
	var v Vector
	for _, part := range strings.Split(s, ",") {
		c, err := ParseChoice(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		v = append(v, c)
	}
	return v, v.Validate()
}

// Validate checks the vector's well-formedness: non-negative fields, a
// coherent fault kind per choice (the trigger its kind needs and no fields
// from another kind) and at most one choice per victim.
func (v Vector) Validate() error {
	seen := make(map[int]bool, len(v))
	for _, c := range v {
		if c.Victim < 0 {
			return fmt.Errorf("explore: negative victim %d", c.Victim)
		}
		if c.AtAction < 0 || (c.AtAction == 0 && c.Round < 0) || c.Prefix < 0 ||
			c.Slow < 0 || c.RestartAt < 0 || c.DropNth < 0 {
			return fmt.Errorf("explore: malformed choice %v", c)
		}
		switch {
		case c.DropNth > 0:
			if c.AtAction != 0 || c.Round != 0 || c.Slow != 0 || c.RestartAt != 0 ||
				c.Omit || c.KeepWork || c.Bits || c.Prefix != 0 {
				return fmt.Errorf("explore: drop choice %v mixes fault kinds", c)
			}
		case c.Slow > 0:
			if c.AtAction != 0 || c.RestartAt != 0 || c.Omit || c.KeepWork || c.Bits || c.Prefix != 0 {
				return fmt.Errorf("explore: slowdown choice %v mixes fault kinds", c)
			}
		case c.Omit:
			if c.AtAction <= 0 {
				return fmt.Errorf("explore: omission choice %v needs an action trigger", c)
			}
			if c.RestartAt != 0 || c.KeepWork {
				return fmt.Errorf("explore: omission choice %v mixes fault kinds", c)
			}
		case c.AtAction == 0 && c.RestartAt > 0 && c.RestartAt <= c.Round:
			return fmt.Errorf("explore: choice %v restarts at or before its crash round", c)
		}
		if seen[c.Victim] {
			return fmt.Errorf("explore: victim %d faulted twice", c.Victim)
		}
		seen[c.Victim] = true
	}
	return nil
}

// Crashes returns the number of crash-kind choices (action- or
// round-triggered, with or without restart) in the vector: the value
// sim.Result.Crashes reaches when every planned crash fires.
func (v Vector) Crashes() int {
	n := 0
	for i := range v {
		if c := &v[i]; c.DropNth == 0 && c.Slow == 0 && !c.Omit {
			n++
		}
	}
	return n
}

// Canonical returns the vector sorted by victim (choices are unordered, one
// per victim, so this is the canonical representative).
func (v Vector) Canonical() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	slices.SortFunc(out, func(a, b Choice) int { return cmp.Compare(a.Victim, b.Victim) })
	return out
}

// isRoundCrash reports whether the choice is a round-triggered crash (the
// only kind the ScheduledCrashes path may announce: slowdowns and drops also
// carry round/zero fields but are not crashes).
func (c *Choice) isRoundCrash() bool {
	return c.AtAction <= 0 && c.Slow == 0 && c.DropNth == 0
}

// Adversary is the universal choice-sequence adversary: a sim.Adversary
// (plus sim.DeliveryAdversary and sim.Restarter) driven entirely by a
// decision vector, so that any fault schedule is a replayable value. It is
// stateful: one adversary replays one run. Vector.Adversary builds a fresh
// one; the explore walkers rewind theirs with reset instead.
type Adversary struct {
	choices []Choice
	// Per-PID replay state, indexed by victim PID (sized to the largest
	// victim in the vector): committed actions observed per action-trigger
	// victim, deliveries observed per drop victim, and slowdown choices
	// already applied.
	counts    []int64
	delivered []int
	slowed    []bool
	// observableFired counts fired omission, slowdown and drop choices —
	// the kinds whose firing the adversary itself witnesses (crash firing is
	// visible to callers through sim.Result.Crashes instead).
	observableFired int
	// overDelivered records that some fired choice's delivery selection
	// extended past the action's real send list — the execution coincides
	// with the canonically smaller choice truncated to the send count.
	overDelivered bool

	// Scratch reused across calls and runs: the round core consumes a
	// scheduled-crash or restart list, and reads a verdict's Deliver mask,
	// before it consults the adversary again.
	crashes  []int
	restarts []int
	mask     []bool
}

var (
	_ sim.Adversary         = (*Adversary)(nil)
	_ sim.DeliveryAdversary = (*Adversary)(nil)
	_ sim.Restarter         = (*Adversary)(nil)
)

// Adversary builds a fresh universal adversary replaying the vector.
func (v Vector) Adversary() *Adversary {
	a := &Adversary{}
	a.reset(v)
	return a
}

// reset rearms the adversary to replay vec from round 0, keeping its
// buffers: a reset adversary is indistinguishable from vec.Adversary().
func (a *Adversary) reset(vec Vector) {
	a.choices = vec
	size := 0
	for i := range vec {
		size = max(size, vec[i].Victim+1)
	}
	a.counts = resize(a.counts, size)
	a.delivered = resize(a.delivered, size)
	a.slowed = resize(a.slowed, size)
	a.observableFired = 0
	a.overDelivered = false
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// deliverMask builds the Deliver mask for a choice against an action with n
// virtual sends, recording over-delivery against the adversary. The mask is
// the adversary's scratch, valid until its next verdict.
func (a *Adversary) deliverMask(c *Choice, n int) []bool {
	if c.Bits {
		if c.Mask>>uint(min(n, 64)) != 0 {
			a.overDelivered = true
		}
		if c.Mask == 0 {
			return nil
		}
		a.mask = a.mask[:0]
		for i := range min(n, 64) {
			a.mask = append(a.mask, c.Mask>>uint(i)&1 == 1)
		}
		return a.mask
	}
	if c.Prefix > n {
		a.overDelivered = true
	}
	p := min(c.Prefix, n)
	if p == 0 {
		return nil
	}
	a.mask = a.mask[:0]
	for range p {
		a.mask = append(a.mask, true)
	}
	return a.mask
}

// OnAction implements sim.Adversary.
func (a *Adversary) OnAction(round int64, pid int, act sim.Action) sim.Verdict {
	for i := range a.choices {
		c := &a.choices[i]
		if c.Victim != pid {
			continue
		}
		if c.Slow > 0 {
			if round >= c.Round && !a.slowed[pid] {
				a.slowed[pid] = true
				a.observableFired++
				return sim.Verdict{Slow: c.Slow}
			}
			continue
		}
		if c.AtAction <= 0 {
			continue // round crash or drop: not an action trigger
		}
		a.counts[pid]++
		if a.counts[pid] != int64(c.AtAction) {
			return sim.Survive()
		}
		deliver := a.deliverMask(c, act.SendCount())
		if c.Omit {
			a.observableFired++
			return sim.Verdict{Omit: true, Deliver: deliver}
		}
		return sim.Verdict{Crash: true, KeepWork: c.KeepWork, Deliver: deliver, RestartAt: c.RestartAt}
	}
	return sim.Survive()
}

// OnDeliver implements sim.DeliveryAdversary: the DropNth-th delivery bound
// for a drop choice's victim is lost in transit.
func (a *Adversary) OnDeliver(_ int64, m sim.Message) bool {
	for i := range a.choices {
		c := &a.choices[i]
		if c.DropNth <= 0 || c.Victim != m.To {
			continue
		}
		a.delivered[m.To]++
		if a.delivered[m.To] == c.DropNth {
			a.observableFired++
			return false
		}
	}
	return true
}

// ScheduledCrashes implements sim.Adversary. The list is the adversary's
// scratch, valid until the next call; nil when no crash is scheduled.
func (a *Adversary) ScheduledCrashes(r int64) []int {
	a.crashes = a.crashes[:0]
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundCrash() && c.Round == r {
			a.crashes = append(a.crashes, c.Victim)
		}
	}
	return sortedOrNil(a.crashes)
}

// NextScheduledCrash implements sim.Adversary.
func (a *Adversary) NextScheduledCrash(after int64) int64 {
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
// Like ScheduledCrashes, the list is scratch valid until the next call.
func (a *Adversary) ScheduledRestarts(r int64) []int {
	a.restarts = a.restarts[:0]
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundCrash() && c.RestartAt == r {
			a.restarts = append(a.restarts, c.Victim)
		}
	}
	return sortedOrNil(a.restarts)
}

// sortedOrNil sorts a scheduled-PID list in place, mapping empty to nil.
func sortedOrNil(pids []int) []int {
	if len(pids) == 0 {
		return nil
	}
	sort.Ints(pids)
	return pids
}

// NextScheduledRestart implements sim.Restarter.
func (a *Adversary) NextScheduledRestart(after int64) int64 {
	next := int64(-1)
	for i := range a.choices {
		if c := &a.choices[i]; c.isRoundCrash() && c.RestartAt > after && (next < 0 || c.RestartAt < next) {
			next = c.RestartAt
		}
	}
	return next
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
