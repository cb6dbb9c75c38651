package explore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/batch"
)

// Objective selects the metric a search maximizes.
type Objective int

const (
	// MaxEffort maximizes work + messages, the paper's combined measure.
	MaxEffort Objective = iota
	// MaxWork maximizes work performed (with multiplicity).
	MaxWork
	// MaxMessages maximizes messages transmitted.
	MaxMessages
	// MaxRounds maximizes the retirement round.
	MaxRounds
)

// ParseObjective maps a flag value to an Objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "effort", "":
		return MaxEffort, nil
	case "work":
		return MaxWork, nil
	case "messages":
		return MaxMessages, nil
	case "rounds":
		return MaxRounds, nil
	}
	return 0, fmt.Errorf("explore: unknown objective %q (want effort|work|messages|rounds)", s)
}

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxWork:
		return "work"
	case MaxMessages:
		return "messages"
	case MaxRounds:
		return "rounds"
	default:
		return "effort"
	}
}

func (o Objective) value(c Certification) int64 {
	switch o {
	case MaxWork:
		return c.Result.WorkTotal
	case MaxMessages:
		return c.Result.Messages
	case MaxRounds:
		return c.Result.Rounds
	default:
		return c.Result.Effort()
	}
}

// SearchOptions configures a worst-case search.
type SearchOptions struct {
	// Objective is the metric to maximize (default MaxEffort).
	Objective Objective
	// Budget caps the total executions spent (default 2048). Half goes to
	// seeded random sampling, the rest to greedy hill-climbing from the
	// best sample.
	Budget int
	// Seed drives the random phase; a fixed seed makes the whole search
	// deterministic for every Jobs value.
	Seed int64
	// Depth is the action-index horizon for mutations (0 = probe-derived
	// via Target.DefaultDepth, doubled for crash-induced extra actions).
	Depth int
	// MaxPrefix caps delivery prefixes; negative means t (the maximal
	// fanout). 0 is honored: it restricts the search to fully suppressed
	// deliveries, matching Enumerate's treatment of a {0} prefix set.
	MaxPrefix int
	// Jobs caps parallel evaluations per batch (0 = GOMAXPROCS).
	Jobs int
}

// SearchResult is the outcome of a worst-case search.
type SearchResult struct {
	// Best is the worst schedule found, as a replayable vector.
	Best Extreme
	// BestVector is Best's parsed form (for replay without round-tripping
	// through the string encoding).
	BestVector Vector
	// Evaluated counts executions spent; Steps counts accepted hill-climb
	// improvements.
	Evaluated int64
	Steps     int
	// Depth is the action horizon used.
	Depth int
	// Violations retains the first maxViolations certification failures
	// hit during the search; ViolationCount is the full total (a sound
	// target reports none; any entry is a finding).
	Violations     []Violation
	ViolationCount int64
}

// Search looks for the schedule maximizing the objective: seeded random
// sampling over decision vectors, then greedy hill-climbing over
// single-choice mutations from the best samples (multi-start, because
// adversarial schedules often need several coordinated crashes and a single
// greedy trajectory stalls on the failure-free plateau). Candidate batches
// are evaluated through the deterministic batch runner, so results are
// identical for every Jobs value and a fixed seed.
func (tg Target) Search(opt SearchOptions) (SearchResult, error) {
	budget := opt.Budget
	if budget <= 0 {
		budget = 2048
	}
	depth := opt.Depth
	if depth <= 0 {
		probed, err := tg.DefaultDepth()
		if err != nil {
			return SearchResult{}, err
		}
		// Crash schedules lengthen other processes' action sequences
		// (takeover chores), so give mutations room beyond the probe.
		depth = 2 * probed
	}
	maxPrefix := opt.MaxPrefix
	if maxPrefix < 0 {
		maxPrefix = tg.T
	}
	out := SearchResult{Depth: depth}
	out.Best.Value = -1
	if tg.MaxCrashes == 0 {
		tg.evaluate([]Vector{nil}, opt, &out)
		return out, nil
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	// Random phase: candidates are drawn sequentially from the seeded rng
	// (so the set never depends on evaluation order), then evaluated in
	// parallel.
	sample := max(budget/2, 1)
	candidates := make([]Vector, 0, sample+1)
	candidates = append(candidates, nil) // the failure-free baseline
	for len(candidates) < sample {
		candidates = append(candidates, tg.randomVector(rng, depth, maxPrefix))
	}
	values := tg.evaluate(candidates, opt, &out)

	// Start points: the best samples first (value desc, index asc — fully
	// deterministic).
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(values[b], values[a]) })

	const maxStarts = 4
	for s := 0; s < maxStarts && s < len(order) && out.Evaluated < int64(budget); s++ {
		incumbent := candidates[order[s]]
		incumbentVal := values[order[s]]
		for out.Evaluated < int64(budget) {
			neighbors := tg.neighbors(incumbent, depth, maxPrefix)
			if remaining := int64(budget) - out.Evaluated; int64(len(neighbors)) > remaining {
				neighbors = neighbors[:remaining]
			}
			if len(neighbors) == 0 {
				break
			}
			nvals := tg.evaluate(neighbors, opt, &out)
			bestIdx, bestVal := -1, incumbentVal
			for i, v := range nvals {
				if v > bestVal {
					bestIdx, bestVal = i, v
				}
			}
			if bestIdx < 0 {
				break // local maximum
			}
			incumbent, incumbentVal = neighbors[bestIdx], bestVal
			out.Steps++
		}
	}
	return out, nil
}

// evaluate certifies candidates in parallel (deterministically), folds them
// into the running best, and returns their objective values.
func (tg Target) evaluate(candidates []Vector, opt SearchOptions, out *SearchResult) []int64 {
	certs := batch.Map(opt.Jobs, len(candidates), func(i int) Certification {
		return tg.Certify(candidates[i])
	})
	values := make([]int64, len(certs))
	for i, c := range certs {
		values[i] = opt.Objective.value(c)
		out.observe(opt.Objective, c)
	}
	out.Evaluated += int64(len(certs))
	return values
}

func (out *SearchResult) observe(obj Objective, c Certification) {
	if v := obj.value(c); v > out.Best.Value {
		out.Best = Extreme{Value: v, Vector: c.Vector.String(), Crashes: c.Result.Crashes}
		out.BestVector = c.Vector
	}
	out.ViolationCount += int64(len(c.Violations))
	for _, v := range c.Violations {
		if len(out.Violations) < maxViolations {
			out.Violations = append(out.Violations, v)
		}
	}
}

// randomVector draws a schedule with 1..MaxCrashes distinct victims.
func (tg Target) randomVector(rng *rand.Rand, depth, maxPrefix int) Vector {
	k := 1 + rng.Intn(tg.MaxCrashes)
	victims := rng.Perm(tg.T)[:k]
	sort.Ints(victims)
	vec := make(Vector, k)
	for i, v := range victims {
		vec[i] = tg.randomChoice(rng, v, depth, maxPrefix)
	}
	return vec
}

func (tg Target) randomChoice(rng *rand.Rand, victim, depth, maxPrefix int) Choice {
	if rng.Intn(8) == 0 {
		// Occasional round trigger: crashes a process even while it sleeps.
		return Choice{Victim: victim, Round: int64(rng.Intn(4 * depth))}
	}
	// Bias toward early crashes (min of two uniforms) and suppressed
	// deliveries: the adversarial extremes of the DHW protocols cut
	// checkpoints before they spread.
	prefix := 0
	if rng.Intn(2) == 0 {
		prefix = rng.Intn(maxPrefix + 1)
	}
	return Choice{
		Victim:   victim,
		AtAction: 1 + min(rng.Intn(depth), rng.Intn(depth)),
		KeepWork: rng.Intn(2) == 0,
		Prefix:   prefix,
	}
}

// neighbors enumerates the incumbent's single-choice mutations: nudge or
// reassign each trigger, toggle keep-work, cut the delivery elsewhere, drop
// a choice, or crash one additional victim. Order is deterministic.
func (tg Target) neighbors(vec Vector, depth, maxPrefix int) []Vector {
	var out []Vector
	used := make(map[int]bool, len(vec))
	for _, c := range vec {
		used[c.Victim] = true
	}
	replace := func(i int, c Choice) {
		n := make(Vector, len(vec))
		copy(n, vec)
		n[i] = c
		out = append(out, n)
	}
	for i, c := range vec {
		if c.AtAction > 0 {
			if c.AtAction > 1 {
				replace(i, Choice{Victim: c.Victim, AtAction: c.AtAction - 1, KeepWork: c.KeepWork, Prefix: c.Prefix})
			}
			if c.AtAction < depth {
				replace(i, Choice{Victim: c.Victim, AtAction: c.AtAction + 1, KeepWork: c.KeepWork, Prefix: c.Prefix})
			}
			replace(i, Choice{Victim: c.Victim, AtAction: c.AtAction, KeepWork: !c.KeepWork, Prefix: c.Prefix})
			if c.Prefix > 0 {
				replace(i, Choice{Victim: c.Victim, AtAction: c.AtAction, KeepWork: c.KeepWork, Prefix: c.Prefix - 1})
			}
			if c.Prefix < maxPrefix {
				replace(i, Choice{Victim: c.Victim, AtAction: c.AtAction, KeepWork: c.KeepWork, Prefix: c.Prefix + 1})
			}
			replace(i, Choice{Victim: c.Victim, Round: int64(c.AtAction)})
		} else {
			if c.Round > 0 {
				replace(i, Choice{Victim: c.Victim, Round: c.Round - 1})
			}
			replace(i, Choice{Victim: c.Victim, Round: c.Round + 1})
			replace(i, Choice{Victim: c.Victim, AtAction: int(min(c.Round, int64(depth-1))) + 1, KeepWork: true})
		}
		// Hand the choice to a victim not yet crashed.
		for v := 0; v < tg.T; v++ {
			if !used[v] {
				moved := c
				moved.Victim = v
				replace(i, moved)
				break
			}
		}
		if len(vec) > 1 {
			n := make(Vector, 0, len(vec)-1)
			n = append(n, vec[:i]...)
			n = append(n, vec[i+1:]...)
			out = append(out, n)
		}
	}
	// Crash one additional victim — every unused victim, every action
	// index. This is the move that escapes the failure-free plateau, where
	// adding any single crash is neutral but a coordinated pair is not.
	if len(vec) < tg.MaxCrashes {
		for v := 0; v < tg.T; v++ {
			if used[v] {
				continue
			}
			for at := 1; at <= depth; at++ {
				n := make(Vector, len(vec), len(vec)+1)
				copy(n, vec)
				n = append(n, Choice{Victim: v, AtAction: at, KeepWork: true})
				out = append(out, n.Canonical())
			}
		}
	}
	return out
}
