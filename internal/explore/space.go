package explore

import (
	"fmt"
	"math"
	"sort"
)

// Space describes an enumerable schedule space: every decision vector with
// up to MaxCrashes faults, victims drawn from Victims, and per-victim
// choices drawn from the cross product Actions × KeepWork × Prefixes (action
// crashes), the omission product Actions × Prefixes (when Omissions is set),
// the round triggers in Rounds (round crashes, plus one crash-with-restart
// per Rounds × RestartDelays pair and one slowdown per Rounds × SlowFactors
// pair) and one message drop per entry of Drops.
//
// The space is indexable: vectors are totally ordered and VectorAt unranks
// any index in [0, Count()) without materializing the rest, which is what
// lets Enumerate shard the walk deterministically. Two canonicalizations
// keep the space free of duplicates by construction:
//
//   - victim sets are k-combinations of Victims in lexicographic order, not
//     permutations — a vector is an unordered set of per-victim choices;
//   - delivery choices are prefixes of the crashed action's virtual send
//     list. An arbitrary-subset mask is available to the fuzzers (Bits), but
//     enumerating all 2^fanout subsets is dominated for certification
//     purposes by the prefix cuts plus the KeepWork split, which already
//     realize every "checkpoint reached j of its recipients" knowledge
//     state the DHW protocols can distinguish per group order.
//
// Choices that turn out unreachable at replay (a victim that retires before
// its AtAction-th action, a prefix past the action's real send count)
// produce executions identical to a canonically smaller vector's; Enumerate
// counts them as collapsed rather than trying to predict reachability.
type Space struct {
	// Victims are the candidate crash victims (distinct; sorted by
	// normalize).
	Victims []int
	// MaxCrashes caps the faults per schedule (use t-1 to preserve the
	// one-survivor guarantee; historically named for the crash-only space).
	MaxCrashes int
	// Actions lists candidate per-victim action indices (1-based).
	Actions []int
	// KeepWork lists the keep-work choices for action crashes.
	KeepWork []bool
	// Prefixes lists candidate delivery-prefix lengths for action crashes
	// and omissions.
	Prefixes []int
	// Rounds lists candidate round triggers (crash or slowdown at round
	// start).
	Rounds []int64
	// Omissions adds a send-omission choice per Actions × Prefixes pair.
	Omissions bool
	// RestartDelays adds, per round trigger r and delay d, a crash at r with
	// a restart scheduled at r+d (entries must be > 0).
	RestartDelays []int64
	// SlowFactors adds, per round trigger and factor, a rate slowdown
	// (entries must be >= 2).
	SlowFactors []int
	// Drops adds one lost-delivery choice per entry: the entry-th message
	// bound for the victim is dropped (entries must be > 0).
	Drops []int
}

// NewSpace is the standard action-indexed space for a t-process instance:
// victims 0..t-1, up to maxCrashes crashes, action indices 1..depth, both
// keep-work choices, delivery prefixes 0..maxPrefix.
func NewSpace(t, maxCrashes, depth, maxPrefix int) Space {
	s := Space{MaxCrashes: maxCrashes, KeepWork: []bool{false, true}}
	for v := 0; v < t; v++ {
		s.Victims = append(s.Victims, v)
	}
	for a := 1; a <= depth; a++ {
		s.Actions = append(s.Actions, a)
	}
	for p := 0; p <= maxPrefix; p++ {
		s.Prefixes = append(s.Prefixes, p)
	}
	return s
}

// normalize validates the space and returns a canonical copy (victims
// sorted and deduplicated, defaults filled in).
func (s Space) normalize() (Space, error) {
	out := s
	out.Victims = append([]int(nil), s.Victims...)
	sort.Ints(out.Victims)
	for i := 1; i < len(out.Victims); i++ {
		if out.Victims[i] == out.Victims[i-1] {
			return out, fmt.Errorf("explore: duplicate victim %d", out.Victims[i])
		}
	}
	if len(out.Victims) > 0 && out.Victims[0] < 0 {
		return out, fmt.Errorf("explore: negative victim %d", out.Victims[0])
	}
	if out.MaxCrashes < 0 {
		return out, fmt.Errorf("explore: MaxCrashes = %d", out.MaxCrashes)
	}
	if out.MaxCrashes > len(out.Victims) {
		out.MaxCrashes = len(out.Victims)
	}
	if len(out.Actions) > 0 {
		if len(out.KeepWork) == 0 {
			out.KeepWork = []bool{false, true}
		}
		if len(out.Prefixes) == 0 {
			out.Prefixes = []int{0}
		}
	}
	for _, a := range out.Actions {
		if a <= 0 {
			return out, fmt.Errorf("explore: action index %d, want > 0", a)
		}
	}
	for _, p := range out.Prefixes {
		if p < 0 {
			return out, fmt.Errorf("explore: delivery prefix %d, want >= 0", p)
		}
	}
	for _, r := range out.Rounds {
		if r < 0 {
			return out, fmt.Errorf("explore: round trigger %d, want >= 0", r)
		}
	}
	if out.Omissions && len(out.Actions) == 0 {
		return out, fmt.Errorf("explore: Omissions set without Actions")
	}
	for _, d := range out.RestartDelays {
		if d <= 0 {
			return out, fmt.Errorf("explore: restart delay %d, want > 0", d)
		}
	}
	if len(out.RestartDelays) > 0 && len(out.Rounds) == 0 {
		return out, fmt.Errorf("explore: RestartDelays set without Rounds")
	}
	for _, k := range out.SlowFactors {
		if k < 2 {
			return out, fmt.Errorf("explore: slowdown factor %d, want >= 2", k)
		}
	}
	if len(out.SlowFactors) > 0 && len(out.Rounds) == 0 {
		return out, fmt.Errorf("explore: SlowFactors set without Rounds")
	}
	for _, d := range out.Drops {
		if d <= 0 {
			return out, fmt.Errorf("explore: drop index %d, want > 0", d)
		}
	}
	if out.perCrash() == 0 && out.MaxCrashes > 0 {
		return out, fmt.Errorf("explore: empty per-fault choice set (no Actions, Rounds or Drops)")
	}
	return out, nil
}

// perCrash is the number of distinct choices for one fault, in decode order:
// the action-crash cross product, the omission product, the plain round
// crashes, the round crashes with restart, the round slowdowns, and the
// drops.
func (s Space) perCrash() int64 {
	total := int64(len(s.Actions)) * int64(len(s.KeepWork)) * int64(len(s.Prefixes))
	if s.Omissions {
		total += int64(len(s.Actions)) * int64(len(s.Prefixes))
	}
	total += int64(len(s.Rounds))
	total += int64(len(s.Rounds)) * int64(len(s.RestartDelays))
	total += int64(len(s.Rounds)) * int64(len(s.SlowFactors))
	total += int64(len(s.Drops))
	return total
}

// countSat is the saturation value for Count: a space this large is not
// enumerable anyway, and saturating keeps the arithmetic overflow-free.
const countSat = math.MaxInt64 / 4

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > countSat/b {
		return countSat
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > countSat-b {
		return countSat
	}
	return a + b
}

// binom returns C(n, k), saturating at countSat.
func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = satMul(r, int64(n-k+i))
		if r >= countSat {
			return countSat
		}
		r /= int64(i)
	}
	return r
}

// Count returns the number of schedules in the space (saturating; Enumerate
// refuses saturated spaces).
func (s Space) Count() int64 {
	norm, err := s.normalize()
	if err != nil {
		return 0
	}
	return norm.count()
}

func (s Space) count() int64 {
	m := s.perCrash()
	total := int64(0)
	for k := 0; k <= s.MaxCrashes; k++ {
		block := binom(len(s.Victims), k)
		for j := 0; j < k; j++ {
			block = satMul(block, m)
		}
		total = satAdd(total, block)
	}
	return total
}

// unranker holds a normalized space's full-mode unranking tables. A walk
// range builds it once, so decoding an index computes no binomial: the
// counts fullDecode and combUnrank step over are table lookups.
type unranker struct {
	victims []int
	kmax    int   // MaxCrashes
	m       int64 // perCrash
	// blocks[k] = C(|victims|, k)·m^k schedules have k victims, and
	// choices[k] = m^k of them share each victim set.
	blocks, choices []int64
	// comb[n·kmax+j] = C(n, j) for n < |victims| and j < kmax.
	comb []int64
}

func newUnranker(s Space) unranker {
	v, kmax, m := len(s.Victims), s.MaxCrashes, s.perCrash()
	u := unranker{
		victims: s.Victims, kmax: kmax, m: m,
		blocks:  make([]int64, kmax+1),
		choices: make([]int64, kmax+1),
		comb:    make([]int64, v*kmax),
	}
	pow := int64(1)
	for k := 0; k <= kmax; k++ {
		u.choices[k] = pow
		u.blocks[k] = satMul(binom(v, k), pow)
		pow = satMul(pow, m)
	}
	for n := 0; n < v; n++ {
		for j := 0; j < kmax; j++ {
			u.comb[n*kmax+j] = binom(n, j)
		}
	}
	return u
}

// combUnrank writes the rank-th k-combination of the victims
// (lexicographic order) into out.
func (u *unranker) combUnrank(k int, rank int64, out []int) {
	vals := u.victims
	pos := 0
	for j := 0; j < k; j++ {
		for {
			// Combinations starting with vals[pos] continue with a
			// (k-j-1)-combination of the remaining values.
			c := u.comb[(len(vals)-pos-1)*u.kmax+k-j-1]
			if rank < c {
				break
			}
			rank -= c
			pos++
		}
		out[j] = vals[pos]
		pos++
	}
}

// fullDecode unranks index i (< the space's count()) into its victim set
// and per-victim choice digits, reusing the scratch slices. The walker needs
// these (victims, digits) coordinates to detect sibling blocks; vectorAt
// materializes them as Choices.
func (u *unranker) fullDecode(i int64, victims, digits []int) ([]int, []int) {
	k := 0
	for i >= u.blocks[k] {
		i -= u.blocks[k]
		k++
	}
	victims, digits = victims[:0], digits[:0]
	if k == 0 {
		return victims, digits
	}
	victimRank, choiceRank := i/u.choices[k], i%u.choices[k]
	victims = append(victims, make([]int, k)...)
	u.combUnrank(k, victimRank, victims)
	digits = append(digits, make([]int, k)...)
	// Most-significant digit first: the first victim's choice varies
	// slowest, so vectors sharing a prefix of choices are index-adjacent.
	for j := k - 1; j >= 0; j-- {
		digits[j] = int(choiceRank % u.m)
		choiceRank /= u.m
	}
	return victims, digits
}

// vectorAt unranks index i (the space must be normalized and i < count()).
func (s Space) vectorAt(i int64) Vector {
	u := newUnranker(s)
	victims, digits := u.fullDecode(i, nil, nil)
	if len(victims) == 0 {
		return nil
	}
	vec := make(Vector, len(victims))
	for j := range vec {
		vec[j] = s.decodeChoice(victims[j], digits[j])
	}
	return vec
}

// decodeChoice maps a digit in [0, perCrash()) to the victim's choice, in
// the perCrash order: the action-crash cross product first (action index
// outermost, then keep-work, then prefix), then omissions (action outermost,
// then prefix), plain round crashes, round crashes with restart (round
// outermost, then delay), round slowdowns (round outermost, then factor),
// and drops last.
func (s Space) decodeChoice(victim, digit int) Choice {
	actionPart := len(s.Actions) * len(s.KeepWork) * len(s.Prefixes)
	if digit < actionPart {
		perAction := len(s.KeepWork) * len(s.Prefixes)
		return Choice{
			Victim:   victim,
			AtAction: s.Actions[digit/perAction],
			KeepWork: s.KeepWork[digit/len(s.Prefixes)%len(s.KeepWork)],
			Prefix:   s.Prefixes[digit%len(s.Prefixes)],
		}
	}
	digit -= actionPart
	if s.Omissions {
		omitPart := len(s.Actions) * len(s.Prefixes)
		if digit < omitPart {
			return Choice{
				Victim:   victim,
				AtAction: s.Actions[digit/len(s.Prefixes)],
				Omit:     true,
				Prefix:   s.Prefixes[digit%len(s.Prefixes)],
			}
		}
		digit -= omitPart
	}
	if digit < len(s.Rounds) {
		return Choice{Victim: victim, Round: s.Rounds[digit]}
	}
	digit -= len(s.Rounds)
	restartPart := len(s.Rounds) * len(s.RestartDelays)
	if digit < restartPart {
		r := s.Rounds[digit/len(s.RestartDelays)]
		return Choice{Victim: victim, Round: r, RestartAt: r + s.RestartDelays[digit%len(s.RestartDelays)]}
	}
	digit -= restartPart
	slowPart := len(s.Rounds) * len(s.SlowFactors)
	if digit < slowPart {
		return Choice{
			Victim: victim,
			Round:  s.Rounds[digit/len(s.SlowFactors)],
			Slow:   s.SlowFactors[digit%len(s.SlowFactors)],
		}
	}
	digit -= slowPart
	return Choice{Victim: victim, DropNth: s.Drops[digit]}
}
