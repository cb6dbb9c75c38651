package core

// Crash-recovery checkpoints (sim.Recoverable) for the protocol state
// machines. A checkpoint is taken at crash time — after the crashing action
// committed, so the machine state already believes that action happened —
// and restored when the scheduled restart round arrives; internal/explore
// also rewinds reused machines to a pristine checkpoint taken before their
// first step. Snapshot deep-copies; Restore copies in place, into the
// machine's own sets and slices, and never mutates the checkpoint, so one
// checkpoint can be restored any number of times. The granularity of a
// machine's sharing determines the copy depth:
//
//   - aMachine and bMachine (dwMachine included) keep every mutable field
//     value-typed; abState and the precomputed PID lists are immutable after
//     construction, so a shallow struct copy is a complete checkpoint.
//   - cMachine owns a mutable *view.View and a pollers scratch slice; both
//     are copied. The view's Index stays shared, and so does its snapshot
//     arena, which is append-only like D's publish arena.
//   - dMachine, like dynamic work's site, embeds an EBARound (eba.go): its
//     carved sets swap roles as phases decide, so a restore copies field by
//     field; its later-phase views' frozen words and its append-only arena
//     stay shared. D adds an optional revert aMachine.
//   - gossipMachine (gossip_step.go) owns its done set; its unit and peer
//     orders are immutable and shared, and so is its rumor arena.
//
// Not Recoverable yet: uniformMachine and naiveMachine (baselines.go),
// Write-All's writer and the agreement and bootstrap wrappers. Their
// processes ignore restarts and stay crashed, as every process did before
// crash recovery existed.

import "repro/internal/sim"

// Static guarantees that every protocol machine supports crash recovery.
var (
	_ sim.Recoverable = (*aMachine)(nil)
	_ sim.Recoverable = (*bMachine)(nil)
	_ sim.Recoverable = (*cMachine)(nil)
	_ sim.Recoverable = (*dMachine)(nil)
)

// Snapshot implements sim.Recoverable.
func (m *aMachine) Snapshot() any { cp := *m; return &cp }

// Restore implements sim.Recoverable.
func (m *aMachine) Restore(snap any) { *m = *snap.(*aMachine) }

// Snapshot implements sim.Recoverable.
func (m *bMachine) Snapshot() any { cp := *m; return &cp }

// Restore implements sim.Recoverable.
func (m *bMachine) Restore(snap any) { *m = *snap.(*bMachine) }

// Snapshot implements sim.Recoverable.
func (m *cMachine) Snapshot() any {
	cp := *m
	cp.v = m.v.Clone()
	cp.pollers = append([]int(nil), m.pollers...)
	return &cp
}

// Restore implements sim.Recoverable.
func (m *cMachine) Restore(snap any) {
	s := snap.(*cMachine)
	v, pollers := m.v, m.pollers
	*m = *s
	m.v = v
	m.v.CopyFrom(s.v)
	m.pollers = append(pollers[:0], s.pollers...)
}

// Snapshot implements sim.Recoverable: the round's checkpoint (see
// EBARound.Checkpoint); the embedded revert aMachine, if any, is
// value-copied like a standalone one.
func (m *dMachine) Snapshot() any {
	cp := *m
	cp.EBARound = m.Checkpoint()
	if m.rev != nil {
		rev := *m.rev
		cp.rev = &rev
	}
	return &cp
}

// Restore implements sim.Recoverable.
func (m *dMachine) Restore(snap any) {
	sn := snap.(*dMachine)
	own := *m
	*m = *sn
	m.EBARound = own.EBARound
	m.RestoreFrom(&sn.EBARound)
	m.rev = nil
	if sn.rev != nil {
		m.rev = own.rev
		if m.rev == nil {
			m.rev = new(aMachine)
		}
		*m.rev = *sn.rev
	}
}
