package explore

// Symmetry reduction: canonical orbit representatives under PID renaming.
//
// A Space's per-victim choice set is victim-independent by construction, so
// the symmetric group on Victims acts on schedules by renaming: a vector
// with k victims maps to the multiset of its choice digits (the decodeChoice
// index each choice came from), and two vectors in the same orbit replay
// identically on any protocol whose behaviour is invariant under process
// renaming. For such targets (Target.Symmetric — see SymmetryWitness for
// the guard) it suffices to certify one representative per orbit and weight
// its certificate by the orbit size.
//
// The canonical representative fixes the victim set to the first k entries
// of Victims and sorts the digit sequence non-decreasing. Representatives
// are totally ordered (k ascending, then digit sequence lexicographic) and
// unranked in O(k·m) without materializing the rest, mirroring vectorAt:
// the last digit varies fastest, so representatives sharing a digit prefix
// are index-adjacent — the property the prefix-equivalence pruning walk
// relies on. Counts:
//
//	reps(k)  = C(m+k-1, k)            (multisets of size k over m digits)
//	orbit(d) = C(|Victims|, k) · k!/∏ mult_j!
//	Σ orbits = C(|Victims|, k) · m^k  (the full space's k-block, exactly)

// binom64 is binom for an int64 n (k stays small), saturating at countSat.
func binom64(n int64, k int) int64 {
	if k < 0 || n < int64(k) {
		return 0
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = satMul(r, n-int64(k)+int64(i))
		if r >= countSat {
			return countSat
		}
		r /= int64(i)
	}
	return r
}

// multisetCount returns the number of non-decreasing digit sequences of
// length r with values in [lo, m): C(m-lo+r-1, r), saturating.
func multisetCount(m int64, lo int, r int) int64 {
	if r == 0 {
		return 1
	}
	vals := m - int64(lo)
	if vals <= 0 {
		return 0
	}
	return binom64(vals+int64(r)-1, r)
}

// canonCount returns the number of canonical representatives (the walk
// length in canonical mode), saturating.
func (s Space) canonCount() int64 {
	m := s.perCrash()
	total := int64(0)
	for k := 0; k <= s.MaxCrashes; k++ {
		total = satAdd(total, multisetCount(m, 0, k))
	}
	return total
}

// CanonicalCount returns the number of orbit representatives a canonical
// walk of the space certifies (0 on an invalid space). Compare Count, the
// raw schedule total the orbits weight back up to.
func (s Space) CanonicalCount() int64 {
	norm, err := s.normalize()
	if err != nil {
		return 0
	}
	return norm.canonCount()
}

// canonDecode unranks canonical representative i (the space must be
// normalized and i < canonCount()) into its victim count and non-decreasing
// digit sequence, reusing digits if it has capacity.
func (s Space) canonDecode(i int64, digits []int) []int {
	m := s.perCrash()
	k := 0
	for {
		block := multisetCount(m, 0, k)
		if i < block {
			break
		}
		i -= block
		k++
	}
	digits = digits[:0]
	lo := 0
	for j := 0; j < k; j++ {
		d := lo
		for {
			// Representatives whose j-th digit is d continue with a
			// non-decreasing (k-j-1)-sequence over [d, m).
			c := multisetCount(m, d, k-j-1)
			if i < c {
				break
			}
			i -= c
			d++
		}
		digits = append(digits, d)
		lo = d
	}
	return digits
}

// orbitSize returns the number of raw schedules the representative with
// this digit multiset stands for: the victim-set choices times the distinct
// assignments of the multiset to k labelled victims.
func (s Space) orbitSize(digits []int) int64 {
	k := len(digits)
	arrangements := int64(1)
	remaining := k
	for i := 0; i < k; {
		j := i
		for j < k && digits[j] == digits[i] {
			j++
		}
		arrangements = satMul(arrangements, binom(remaining, j-i))
		remaining -= j - i
		i = j
	}
	return satMul(binom(len(s.Victims), k), arrangements)
}

// canonVector materializes the representative for a digit sequence: the
// first k victims, in order, carrying the digits.
func (s Space) canonVector(digits []int) Vector {
	if len(digits) == 0 {
		return nil
	}
	vec := make(Vector, len(digits))
	for j, d := range digits {
		vec[j] = s.decodeChoice(s.Victims[j], d)
	}
	return vec
}

// renameVector applies a PID renaming to the schedule's victims (the
// choices are victim-independent, so this is the orbit action).
func renameVector(vec Vector, perm map[int]int) Vector {
	out := make(Vector, len(vec))
	for i, c := range vec {
		if to, ok := perm[c.Victim]; ok {
			c.Victim = to
		}
		out[i] = c
	}
	return out.Canonical()
}

// SymmetryWitness searches the space for a counterexample to PID
// exchangeability: a vector and a transposition of its victims under which
// the replayed executions differ (beyond the renaming itself). It returns
// the witness as "vector <-> renamed-vector" or "" when no counterexample
// exists among the first limit schedules — the small-space cross-check that
// guards every Target.Symmetric declaration. DHW protocols A-D all produce
// witnesses: special process 0, PID-ordered takeover chains and PID-keyed
// chunking break exchangeability; only the anonymous trivial baseline has
// none.
func (tg Target) SymmetryWitness(space Space, limit int64) (string, error) {
	norm, err := space.normalize()
	if err != nil {
		return "", err
	}
	count := norm.count()
	if limit > 0 && count > limit {
		count = limit
	}
	h := newHarness(tg)
	for i := int64(0); i < count; i++ {
		vec := norm.vectorAt(i)
		if len(vec) == 0 {
			continue
		}
		base := h.certify(vec)
		for _, other := range norm.Victims {
			v := vec[0].Victim
			if other == v {
				continue
			}
			perm := map[int]int{v: other, other: v}
			renamed := renameVector(vec, perm)
			if renamed.Validate() != nil {
				continue // transposition collided with another choice's victim
			}
			img := h.certify(renamed)
			if !certEquivModRenaming(base, img, tg.T, perm) {
				return vec.String() + " <-> " + renamed.String(), nil
			}
		}
	}
	return "", nil
}

// certEquivModRenaming checks that two certifications are images of each
// other under the PID permutation perm: equal aggregates, perm-matched
// per-process stats and equal verdicts.
func certEquivModRenaming(a, b Certification, t int, perm map[int]int) bool {
	ra, rb := a.Result, b.Result
	if ra.WorkTotal != rb.WorkTotal || ra.WorkDistinct != rb.WorkDistinct ||
		ra.Messages != rb.Messages || ra.Rounds != rb.Rounds ||
		ra.CompletedRound != rb.CompletedRound || ra.Survivors != rb.Survivors ||
		ra.Crashes != rb.Crashes || ra.Restarts != rb.Restarts ||
		ra.Dropped != rb.Dropped || ra.Omitted != rb.Omitted {
		return false
	}
	if len(ra.PerProc) != len(rb.PerProc) {
		return false
	}
	for p := range ra.PerProc {
		q := p
		if to, ok := perm[p]; ok {
			q = to
		}
		if q >= len(rb.PerProc) || ra.PerProc[p] != rb.PerProc[q] {
			return false
		}
	}
	if len(a.Violations) != len(b.Violations) || a.Collapsed != b.Collapsed {
		return false
	}
	return true
}
