package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/explore"
)

// X4ScheduleSpace certifies the paper's bounds over the *entire* crash
// schedule space of small instances — the model-checking complement to the
// handcrafted adversaries of T1-T9: every decision vector with up to f
// crashes at probe-derived action depth, enumerated and replayed through
// internal/explore's universal adversary.
func X4ScheduleSpace() Table {
	t := Table{
		ID:    "X4",
		Title: "Exhaustive schedule-space certification (model-checking sweep)",
		Claim: "Theorems 2.3/2.8/3.8/4.1 are worst-case over all crash schedules: every decision vector " +
			"(victim × action index × keep-work × delivery prefix, up to f crashes) respects the work, " +
			"message, round and effort bounds, the completion guarantee and the at-most-one-active invariant",
		Columns: []string{"protocol", "n", "t", "f", "depth", "schedules",
			"worst work ≤ bound", "worst effort ≤ bound", "worst rounds ≤ bound", "violations"},
	}
	cases := []struct {
		proto string
		n, tt int
		f     int
	}{
		{"a", 8, 3, 2},
		{"b", 8, 3, 2},
		{"c", 6, 3, 2},
		{"d", 8, 3, 2},
	}
	for _, c := range cases {
		target, err := explore.NewTarget(c.proto, c.n, c.tt, c.f)
		if err != nil {
			t.Err = err
			return t
		}
		depth, err := target.DefaultDepth()
		if err != nil {
			t.Err = fmt.Errorf("%s: %w", c.proto, err)
			return t
		}
		space := explore.NewSpace(c.tt, c.f, depth, c.tt)
		rep, err := target.Enumerate(space, explore.Options{})
		if err != nil {
			t.Err = fmt.Errorf("%s: %w", c.proto, err)
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(c.proto), V(c.n), V(c.tt), V(c.f), V(depth), V(rep.Schedules),
			B(rep.WorstWork.Value, rep.Bounds.Work),
			B(rep.WorstEffort.Value, rep.Bounds.Effort),
			B(rep.WorstRounds.Value, rep.Bounds.Rounds),
			Eq(rep.ViolationCount, 0),
		})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s worst-effort schedule (replayable via `doall explore -replay`): `%s`",
			c.proto, rep.WorstEffort.Vector))
	}
	t.Notes = append(t.Notes,
		"Every execution is additionally checked for the completion guarantee and (A/B/C) the "+
			"at-most-one-active invariant; `violations` counts all failures of any check.",
		"Delivery choices enumerate prefixes of the crashed action's virtual send list; victim sets "+
			"are combinations (see DESIGN.md §5 for the canonicalizations).")
	return t
}

// X6CertificationAtScale certifies spaces two orders of magnitude beyond
// X4's model-checking sweep, using the scale machinery of internal/explore:
// symmetry reduction (the PID-exchangeable trivial baseline is certified
// via canonical orbit representatives, each weighted by its orbit size) and
// prefix-equivalence pruning (sibling delivery prefixes share one replayed
// run, so engine runs fall well below walked indices). The pinned raw and
// walked counts double as regression checks on the canonical indexing
// itself: any change to the space grammar or the orbit decoder moves them.
func X6CertificationAtScale() Table {
	t := Table{
		ID:    "X6",
		Title: "Certification at scale (symmetry reduction + prefix-equivalence pruning)",
		Claim: "exhaustive certification extends to fault-alphabet spaces ~150x larger than X4's sweeps " +
			"(8.25M raw schedules vs X4's largest 55,897) at the same order of wall-clock: symmetric " +
			"targets are walked via canonical orbit representatives with orbit-weighted counters, and " +
			"prefix-equivalence pruning shares replayed runs across sibling delivery prefixes",
		Columns: []string{"protocol", "mode", "n", "t", "f",
			"raw schedules", "walked", "engine runs ≤ walked", "worst work ≤ bound", "violations"},
	}
	cases := []struct {
		proto           string
		n, tt, f        int
		depth, prefix   int
		rawPin, walkPin int64
	}{
		// The symmetric baseline at acceptance scale: 8,252,815 raw
		// schedules collapse onto 18,424 canonical representatives.
		{"trivial", 4, 9, 3, 6, 1, 8252815, 18424},
		// An asymmetric protocol (D holds under every fault kind, X5) walks
		// its space raw, but pruning still collapses the replay work.
		{"d", 8, 3, 2, 6, 2, 12871, 12871},
	}
	for _, c := range cases {
		target, err := explore.NewTarget(c.proto, c.n, c.tt, c.f)
		if err != nil {
			t.Err = err
			return t
		}
		space := explore.NewSpace(c.tt, c.f, c.depth, c.prefix)
		space.Omissions = true
		space.Rounds = []int64{0, 1, 2}
		space.RestartDelays = []int64{2}
		space.SlowFactors = []int{2}
		if c.proto == "trivial" {
			space.Drops = []int{1}
		} else {
			space.Drops = []int{1, 2}
		}
		rep, err := target.Enumerate(space, explore.Options{})
		if err != nil {
			t.Err = fmt.Errorf("%s: %w", c.proto, err)
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(c.proto), V(rep.Mode), V(c.n), V(c.tt), V(c.f),
			Eq(rep.Schedules, c.rawPin),
			Eq(rep.Walked, c.walkPin),
			B(rep.EngineRuns, rep.Walked),
			B(rep.WorstWork.Value, rep.Bounds.Work),
			Eq(rep.ViolationCount, 0),
		})
	}
	t.Notes = append(t.Notes,
		"Both rows enumerate the full fault alphabet: crash (action- and round-triggered), send "+
			"omission, message drop, restart and slowdown choices per victim (see DESIGN.md §5).",
		"`raw schedules` counts every concrete schedule certified; in canonical mode the counters are "+
			"orbit-weighted, so the 8.25M raw schedules of the trivial row cost only 18,424 replayed "+
			"representatives — a 448x reduction, which is how a space 147x beyond X4's largest row "+
			"(55,897 schedules) certifies in comparable wall-clock.",
		"`engine runs ≤ walked` is the prefix-equivalence pruning win: sibling delivery prefixes that "+
			"provably coincide replay one profiled run instead of one run per index.",
		"Protocols A–C are excluded: A and B break the single-active guarantee under slowdown/loss "+
			"(pinned in X5), and C's exponential deadlines make its extended-alphabet spaces "+
			"wall-clock-prohibitive at this depth.")
	return t
}

// X7SuccessorCertification certifies the successor protocols that followed
// the paper — the leader-free epoch-gossip Do-All (CGKS style) and its
// congested-clique variant under an engine-enforced per-round bandwidth cap
// — over full-fault-alphabet schedule spaces, against the work, message and
// round bounds registered in core/bounds.go. This is the substrate
// generality experiment: the same enumeration, pruning and replay machinery
// that certifies DHW92's A–D certifies a point-to-point-heavy gossip
// protocol and the engine's first message-plane constraint unchanged.
func X7SuccessorCertification() Table {
	t := Table{
		ID:    "X7",
		Title: "Successor-protocol certification (gossip + congested-clique bandwidth cap)",
		Claim: "the CGKS-style gossip Do-All respects its registered work, message and round bounds over " +
			"every full-alphabet schedule (crash, omission, loss, restart, slowdown) with up to f faults, " +
			"and stays correct and within the lag-adjusted bounds when the engine defers every " +
			"over-budget send under a congested-clique bandwidth cap of half its fanout",
		Columns: []string{"protocol", "n", "t", "f", "depth", "raw schedules", "engine runs",
			"worst work ≤ bound", "worst msgs ≤ bound", "worst rounds ≤ bound", "violations"},
	}
	cases := []struct {
		proto  string
		n, tt  int
		f      int
		rawPin int64
	}{
		// The acceptance-scale space: 101,921 raw full-alphabet schedules,
		// every one replayed against the CGKS-style bounds. The probe depth
		// (8) follows the failure-free run's longest process, so the count
		// moves with gossip's seeded unit order.
		{"gossip", 6, 4, 2, 101921},
		// The same space under the bandwidth cap (lag-1 bounds): the cap
		// defers rumors every epoch, so every schedule also exercises the
		// deferred-send queue and the pump phase.
		{"gossip-cap", 6, 4, 2, 154241},
	}
	for _, c := range cases {
		target, err := explore.NewTarget(c.proto, c.n, c.tt, c.f)
		if err != nil {
			t.Err = err
			return t
		}
		depth, err := target.DefaultDepth()
		if err != nil {
			t.Err = fmt.Errorf("%s: %w", c.proto, err)
			return t
		}
		space := explore.NewSpace(c.tt, c.f, depth, c.tt)
		space.Omissions = true
		space.Rounds = []int64{0, 1, 2}
		space.RestartDelays = []int64{2}
		space.SlowFactors = []int{2}
		space.Drops = []int{1}
		rep, err := target.Enumerate(space, explore.Options{})
		if err != nil {
			t.Err = fmt.Errorf("%s: %w", c.proto, err)
			return t
		}
		t.Rows = append(t.Rows, []Cell{
			V(c.proto), V(c.n), V(c.tt), V(c.f), V(depth),
			Eq(rep.Schedules, c.rawPin),
			B(rep.EngineRuns, rep.Walked),
			B(rep.WorstWork.Value, rep.Bounds.Work),
			B(rep.WorstMessages.Value, rep.Bounds.Messages),
			B(rep.WorstRounds.Value, rep.Bounds.Rounds),
			Eq(rep.ViolationCount, 0),
		})
		if c.proto == "gossip-cap" {
			cert := target.Certify(explore.Vector{})
			t.Notes = append(t.Notes, fmt.Sprintf(
				"gossip-cap runs under `-bandwidth %d` (half the fanout %d for t=%d): the failure-free run "+
					"defers %d rumor sends to later rounds and still matches the uncapped run's completion.",
				target.Bandwidth, core.GossipFanout(c.tt), c.tt, cert.Result.Deferred))
		}
	}
	t.Notes = append(t.Notes,
		"Both rows enumerate the full fault alphabet (crash with keep-work × delivery prefix, send "+
			"omission, message drop, restart, slowdown) at the probe-derived depth; gossip is "+
			"PID-seeded and so walks its space raw (no symmetry orbit applies).",
		"The gossip bounds are the CGKS-style registrations in core/bounds.go: work ≤ min(tn+f, "+
			"n + 3(t+f)·stale), messages ≤ fanout·epochs, rounds ≤ 2(f+1)(n+D+lag+4); the capped row "+
			"certifies the lag-1 variants (one extra epoch of rumor queueing delay).",
		"`engine runs` below walked indices is prefix-equivalence pruning sharing replays across "+
			"sibling fault digits, exactly as in X6.")
	return t
}

// faultVerdict classifies one (protocol, fault-kind) cell of X5 from the
// certification failures its schedules produced: a broken guarantee
// (completion, the single-active invariant, or an engine abort) outranks a
// broken bound, which outranks a clean pass.
func faultVerdict(violations []explore.Violation) string {
	degraded := map[string]bool{}
	breaks := ""
	for _, v := range violations {
		switch {
		case strings.Contains(v.Reason, "invariant violated"):
			breaks = "breaks: single-active"
		case strings.Contains(v.Reason, "survivors but only"):
			if breaks == "" {
				breaks = "breaks: completion"
			}
		case strings.Contains(v.Reason, "exceeds bound"):
			degraded[strings.Fields(v.Reason)[0]] = true
		default:
			breaks = "breaks: " + v.Reason
		}
	}
	if breaks != "" {
		return breaks
	}
	if len(degraded) > 0 {
		names := make([]string, 0, len(degraded))
		for n := range degraded {
			names = append(names, n)
		}
		sort.Strings(names)
		return "degrades: " + strings.Join(names, "+")
	}
	return "holds"
}

// verdictCell records the measured verdict against the pinned expectation,
// so a behavioural change under any fault kind fails the experiment suite.
func verdictCell(measured, expected string) Cell {
	ok := measured == expected
	return Cell{Value: measured, OK: &ok}
}

// X5FaultSurvival measures which crash-only guarantees survive the extended
// fault alphabet — send omission, transient message loss, rate slowdown and
// crash recovery — on every protocol. The paper's theorems assume crashed
// processes stay crashed and messages arrive; this table is the experiment
// in what its bounds do under adversaries outside that model. Breakage is
// the result: each cell's verdict is pinned, so the table doubles as a
// regression check on the failure modes themselves.
func X5FaultSurvival() Table {
	t := Table{
		ID:    "X5",
		Title: "Bound survival under the extended fault alphabet",
		Claim: "the theorems are proved for crash failures without recovery; under send omission, message " +
			"loss, slowdown and crash-recovery each protocol either holds (all bounds and guarantees), " +
			"degrades (a cost bound fails, guarantees intact) or breaks (completion or single-active fails)",
		Columns: []string{"protocol", "fault", "schedules", "worst work", "worst rounds", "verdict"},
	}
	protos := []struct {
		proto string
		n, tt int
		f     int
	}{
		{"a", 8, 3, 2},
		{"b", 8, 3, 2},
		{"c", 6, 3, 2},
		{"d", 8, 3, 2},
	}
	kinds := []struct {
		name    string
		vectors []string
	}{
		{"omission", []string{"0@a1:omit:p0", "0@a2:omit:p0", "1@a2:omit:p0", "0@a3:omit:m1"}},
		{"loss", []string{"0@d1", "1@d1", "1@d2", "2@d1"}},
		{"slowdown", []string{"0@r0:slow:2", "0@r0:slow:4", "1@r2:slow:3"}},
		{"restart", []string{
			"1@r1:restart@r3", "1@r2:restart@r5",
			"0@a2:keep:p0:restart@r6", "1@r1:restart@r4,2@r2:restart@r6",
		}},
	}
	// The pinned findings. A stalled or revived process looks dead to its
	// successor, so the takeover ladder of A/B elects a second active worker:
	// slowdown breaks single-active on both, and B — whose takeovers also
	// hinge on hearing every checkpoint — additionally breaks it under
	// message loss and crash recovery. C's exponential deadlines absorb every
	// fault kind at this size (its round *bound* is exponential too), and D,
	// with no active/passive distinction, holds everywhere. Completion and
	// the work bounds survive every cell.
	expected := map[string]string{
		"a/omission": "holds", "a/loss": "holds",
		"a/slowdown": "breaks: single-active", "a/restart": "holds",
		"b/omission": "holds", "b/loss": "breaks: single-active",
		"b/slowdown": "breaks: single-active", "b/restart": "breaks: single-active",
		"c/omission": "holds", "c/loss": "holds",
		"c/slowdown": "holds", "c/restart": "holds",
		"d/omission": "holds", "d/loss": "holds",
		"d/slowdown": "holds", "d/restart": "holds",
	}
	for _, p := range protos {
		target, err := explore.NewTarget(p.proto, p.n, p.tt, p.f)
		if err != nil {
			t.Err = err
			return t
		}
		for _, k := range kinds {
			var violations []explore.Violation
			var worstWork, worstRounds int64
			for _, s := range k.vectors {
				vec, err := explore.ParseVector(s)
				if err != nil {
					t.Err = fmt.Errorf("%s/%s: %w", p.proto, k.name, err)
					return t
				}
				cert := target.Certify(vec)
				violations = append(violations, cert.Violations...)
				worstWork = max(worstWork, cert.Result.WorkTotal)
				worstRounds = max(worstRounds, cert.Result.Rounds)
			}
			verdict := faultVerdict(violations)
			t.Rows = append(t.Rows, []Cell{
				V(p.proto), V(k.name), V(len(k.vectors)),
				V(worstWork), V(worstRounds),
				verdictCell(verdict, expected[p.proto+"/"+k.name]),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Schedules are replayable decision vectors over the extended grammar (see `doall explore -replay`); "+
			"worst work/rounds are maxima over the cell's schedules.",
		"`degrades: X` means cost bound X fails while completion and the invariant hold; `breaks` names "+
			"the guarantee that fails. Only the stepper substrate supports recovery, so restart schedules "+
			"exercise the Recoverable protocol bodies.")
	return t
}
