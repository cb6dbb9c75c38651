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
//   - dMachine owns six mutable bitsets (which swap roles as phases decide,
//     so a restore copies field by field), a future-phase view buffer (a
//     slice in arrival order, each view tagged with its phase) and an
//     optional embedded revert aMachine. It keeps no member list: its work
//     phase walks S by rank (Select, then Next), so the work cursors are
//     plain values copied with the struct. Its sets and scratch are carved
//     from its builder's slabs (slab.go); a checkpoint's are its own heap
//     copies, and a restore copies back into the carved ones. Buffered
//     taggedViews point at published DViews, which are frozen, and stay
//     shared, as does the publish arena itself — it is append-only, so
//     checkpoint and machine bumping it can never overwrite each other's
//     published views.
//   - gossipMachine (gossip_step.go) owns its done set; its unit and peer
//     orders are immutable and shared, and so is its rumor arena.
//
// The baselines (baselines.go) are not Recoverable yet: their processes
// ignore restart schedules and stay crashed — exactly the behaviour the
// pre-recovery engine had for every process.

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

// Snapshot implements sim.Recoverable. The per-round scratch buffers (views,
// rcpts) are dead between steps and left out; the embedded revert aMachine,
// if any, is value-copied like a standalone one.
func (m *dMachine) Snapshot() any {
	cp := *m
	cp.s = m.s.Clone()
	cp.t = m.t.Clone()
	cp.u = m.u.Clone()
	cp.uPrev = m.uPrev.Clone()
	cp.tNew = m.tNew.Clone()
	cp.sCur = m.sCur.Clone()
	cp.heard = append([]bool(nil), m.heard...)
	cp.buf = append([]taggedView(nil), m.buf...)
	cp.views = nil
	cp.rcpts = nil
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
	m.s, m.t, m.u, m.uPrev, m.tNew, m.sCur = own.s, own.t, own.u, own.uPrev, own.tNew, own.sCur
	m.s.CopyFrom(sn.s)
	m.t.CopyFrom(sn.t)
	m.u.CopyFrom(sn.u)
	m.uPrev.CopyFrom(sn.uPrev)
	m.tNew.CopyFrom(sn.tNew)
	m.sCur.CopyFrom(sn.sCur)
	m.heard = append(own.heard[:0], sn.heard...)
	clear(own.buf)
	m.buf = append(own.buf[:0], sn.buf...)
	m.views, m.rcpts = own.views[:0], own.rcpts[:0]
	m.rev = nil
	if sn.rev != nil {
		m.rev = own.rev
		if m.rev == nil {
			m.rev = new(aMachine)
		}
		*m.rev = *sn.rev
	}
}
