package adversary

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
		return Choice{}, fmt.Errorf("adversary: bad choice %q: want V@rROUND[:restart@rR|:slow:K], V@aN:keep|lose|omit:pK|mHEX[:restart@rR] or V@dN", s)
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
	for i, c := range v {
		if c.Victim < 0 {
			return fmt.Errorf("adversary: negative victim %d", c.Victim)
		}
		if c.AtAction < 0 || (c.AtAction == 0 && c.Round < 0) || c.Prefix < 0 ||
			c.Slow < 0 || c.RestartAt < 0 || c.DropNth < 0 {
			return fmt.Errorf("adversary: malformed choice %v", c)
		}
		switch {
		case c.DropNth > 0:
			if c.AtAction != 0 || c.Round != 0 || c.Slow != 0 || c.RestartAt != 0 ||
				c.Omit || c.KeepWork || c.Bits || c.Prefix != 0 {
				return fmt.Errorf("adversary: drop choice %v mixes fault kinds", c)
			}
		case c.Slow > 0:
			if c.AtAction != 0 || c.RestartAt != 0 || c.Omit || c.KeepWork || c.Bits || c.Prefix != 0 {
				return fmt.Errorf("adversary: slowdown choice %v mixes fault kinds", c)
			}
		case c.Omit:
			if c.AtAction <= 0 {
				return fmt.Errorf("adversary: omission choice %v needs an action trigger", c)
			}
			if c.RestartAt != 0 || c.KeepWork {
				return fmt.Errorf("adversary: omission choice %v mixes fault kinds", c)
			}
		case c.AtAction == 0 && c.RestartAt > 0 && c.RestartAt <= c.Round:
			return fmt.Errorf("adversary: choice %v restarts at or before its crash round", c)
		}
		if slices.ContainsFunc(v[:i], func(o Choice) bool { return o.Victim == c.Victim }) {
			return fmt.Errorf("adversary: victim %d faulted twice", c.Victim)
		}
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
