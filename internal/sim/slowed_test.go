package sim

// Slowed wraps a stepper so every productive step is followed by k-1 idle
// actions: the statically-assigned rate-degradation model (the
// quarter-efficiency idiom is k = 4), as opposed to the adversary-driven
// Verdict.Slow which stalls the process between actions from the outside.
// A Slowed process still occupies its rounds — each pad action passes
// through the adversary like any other committed action — so its per-proc
// Actions count grows k-fold while its protocol progress drops k-fold.
// k <= 1 returns the stepper unchanged. A Recoverable stepper stays
// recoverable, with the pad counter checkpointed alongside the inner state.
func Slowed(st Stepper, k int) Stepper {
	if k <= 1 {
		return st
	}
	s := &slowed{inner: st, k: k}
	if _, ok := st.(Recoverable); ok {
		return slowedRec{s}
	}
	return s
}

type slowed struct {
	inner Stepper
	k     int
	pad   int // idle actions still owed before the next productive step
}

func (s *slowed) Step(p *Proc) Yield {
	if s.pad > 0 {
		s.pad--
		return Yield{Kind: YieldAction}
	}
	y := s.inner.Step(p)
	if y.Kind == YieldAction {
		s.pad = s.k - 1
	}
	return y
}

// slowedSnap checkpoints a slowed Recoverable stepper: inner state plus the
// owed pad count, so a restart resumes mid-degradation cycle exactly.
type slowedSnap struct {
	inner any
	pad   int
}

type slowedRec struct{ *slowed }

func (s slowedRec) Snapshot() any {
	return slowedSnap{inner: s.inner.(Recoverable).Snapshot(), pad: s.pad}
}

func (s slowedRec) Restore(snap any) {
	sn := snap.(slowedSnap)
	s.inner.(Recoverable).Restore(sn.inner)
	s.pad = sn.pad
}
