package core

// Every protocol body in this package is an explicit state machine on sim's
// direct-call Stepper interface (protocolX_step.go, gossip_step.go,
// trivial_step.go, baselines.go): Step advances the
// process to its next round-consuming action and returns it as a Yield — a
// sleep until a deadline or the next mail, an action, or a halt. Each
// ProtocolXProcs builder returns the machines, and nothing else runs the
// protocols: the standalone runs, the live and wire planes, explore's
// certified walks and the layered protocols (internal/agreement,
// internal/bootstrap), which wrap an A–C machine, forward its yields and
// attach one message to every unit of work it performs. Observing the work
// needs no hook: the engine's commit reports every counted unit to its
// tracer. testdata/results.golden pins each machine's runs.

import (
	"repro/internal/sim"
)

// haltYield terminates the process voluntarily.
func haltYield() sim.Yield { return sim.Yield{Kind: sim.YieldHalt} }

func sleepYield(until int64) sim.Yield {
	return sim.Yield{Kind: sim.YieldSleep, Until: until}
}

func sendYield(sends []sim.Send) sim.Yield {
	return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Sends: sends}}
}

// broadcastYield commits one payload to every PID in to except the caller,
// as a single broadcast record on the engine's message plane.
func broadcastYield(p *sim.Proc, to []int, payload any) sim.Yield {
	return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Broadcast: p.BroadcastTo(to, payload)}}
}

func workYield(unit int) sim.Yield {
	return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{WorkUnit: unit}}
}

func idleYield() sim.Yield {
	return sim.Yield{Kind: sim.YieldAction}
}

// shouldSleep is the waiting rule of every machine: a process waits
// (sleeps) exactly when it has no undrained mail and the deadline has not
// arrived. Machines place this guard at the top of each
// waiting state; since the engine re-steps the process only on mail or at
// the wake time, the guard is stateless.
func shouldSleep(p *sim.Proc, deadline int64) bool {
	return !p.HasMail() && p.Now() < deadline
}

// dwMachine is the DoWork procedure of Protocols A and B (Fig. 1) as a
// state machine: takeover chores implied by the last ordinary message, then
// the remaining subchunks with partial checkpoints to the own group and,
// at every chunk boundary, a full checkpoint informing every later group,
// each notification echoed back to the own group. The caller runs init on
// takeover and then forwards step until it returns a halt.
type dwMachine struct {
	ab *abState
	j  int
	gj int

	op int // current micro-op (dwOp* below)

	sc    int // last completed subchunk in the main loop (work resumes at sc+1)
	u, hi int // work cursor: next logical unit and end of current subchunk

	// In-flight full checkpoint: inform groups fcG..G that subchunk fcC is
	// done, echoing each notification to the own group's remainder; fcRet is
	// the op to resume afterwards.
	fcC, fcG int
	fcRet    int
	fcPay    any // FullCP{fcC, fcG}, boxed once for the group and the echo

	// Takeover chores decoded from the last ordinary message.
	c          int    // subchunk the last message reported
	hasEcho    bool   // re-echo echoPay before the chore full checkpoint
	echoPay    FullCP // payload of that echo
	hasPartial bool   // complete the partial checkpoint of c
	hasFull    bool   // run a chore full checkpoint from group fullFrom
	fullFrom   int

	// Precomputed recipient PID lists (message order is position order, as in
	// assignment.pids).
	remPIDs   []int   // engine PIDs of j's group remainder: a suffix of groupPIDs[gj]
	groupPIDs [][]int // engine PIDs per group, 1-indexed
}

const (
	dwChorePartial = iota
	dwChoreEcho
	dwChoreFull
	dwSubNext
	dwWork
	dwPartial
	dwFullCheck
	dwFullGroup
	dwFullEcho
	dwDone
)

// init starts position j's takeover from last, the newest ordinary message
// it heard (nil: none).
func (m *dwMachine) init(ab *abState, p *sim.Proc, j int, last *ordMsg) {
	p.SetActive(true)
	m.ab, m.j, m.gj = ab, j, ab.q.GroupOf(j)
	m.groupPIDs = ab.pidsByGroup()
	m.remPIDs = m.groupPIDs[m.gj][ab.q.Offset(j)+1:]
	m.hasEcho, m.hasPartial, m.hasFull = false, false, false
	switch {
	case last == nil:
		// Never heard anything: all lower processes died silently; start
		// from the beginning with no chores.
		m.c = 0
	case !last.full:
		// Last message "(c)": complete the partial checkpoint of c; if c is
		// a chunk boundary, redo its full checkpoint from the first later
		// group.
		m.c = last.c
		m.hasPartial = true
		m.hasFull = ab.chunkBoundary(m.c)
		m.fullFrom = m.gj + 1
	case ab.q.GroupOf(last.from) != m.gj:
		// "(c, g)" from outside the group: then g = gⱼ (the sender was
		// informing j's group). Inform the rest of the group and proceed
		// with the full checkpoint from group gⱼ+1 (paper §2.1 prose).
		m.c = last.c
		m.hasPartial = true
		m.hasFull = true
		m.fullFrom = m.gj + 1
	default:
		// "(c, g)" from within the group: the sender had informed group g
		// and was checkpointing that fact. Re-echo it to the remainder of
		// the group, then continue the full checkpoint from group g+1.
		m.c = last.c
		m.hasEcho = true
		m.echoPay = FullCP{C: last.c, G: last.g}
		m.hasFull = true
		m.fullFrom = last.g + 1
	}
	m.sc = m.c
	m.op = dwChorePartial
}

// step advances to the next round-consuming action; zero-round operations
// (empty broadcasts, suppressed partial checkpoints, empty subchunks) fall
// through inside the loop.
func (m *dwMachine) step(p *sim.Proc) sim.Yield {
	for {
		switch m.op {
		case dwChorePartial:
			m.op = dwChoreEcho
			if m.hasPartial {
				if y, ok := m.partialYield(p, m.c); ok {
					return y
				}
			}
		case dwChoreEcho:
			m.op = dwChoreFull
			if m.hasEcho {
				if y, ok := m.echoYield(p, m.echoPay); ok {
					return y
				}
			}
		case dwChoreFull:
			if m.hasFull {
				m.fcC, m.fcG, m.fcRet = m.c, m.fullFrom, dwSubNext
				m.op = dwFullGroup
			} else {
				m.op = dwSubNext
			}
		case dwSubNext:
			m.sc++
			if m.sc > m.ab.tm.p {
				return haltYield()
			}
			m.u, m.hi = subchunkRange(m.ab.cfg.N, m.ab.tm.p, m.sc)
			m.op = dwWork
		case dwWork:
			if m.u > m.hi {
				m.op = dwPartial
				continue
			}
			u := m.u
			m.u++
			return workYield(m.ab.as.unitID(u))
		case dwPartial:
			m.op = dwFullCheck
			if y, ok := m.partialYield(p, m.sc); ok {
				return y
			}
		case dwFullCheck:
			if m.ab.chunkBoundary(m.sc) {
				m.fcC, m.fcG, m.fcRet = m.sc, m.gj+1, dwSubNext
				m.op = dwFullGroup
			} else {
				m.op = dwSubNext
			}
		case dwFullGroup:
			if m.fcG > m.ab.q.G {
				m.op = m.fcRet
				continue
			}
			m.op = dwFullEcho
			m.fcPay = FullCP{C: m.fcC, G: m.fcG}
			bc := p.BroadcastTo(m.groupPIDs[m.fcG], m.fcPay)
			if len(bc.To) > 0 {
				return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Broadcast: bc}}
			}
		case dwFullEcho:
			m.fcG++
			m.op = dwFullGroup
			if y, ok := m.echoYield(p, m.fcPay); ok {
				return y
			}
		case dwDone:
			return haltYield()
		}
	}
}

// partialYield builds the partial checkpoint "(c)" to the group remainder;
// ok=false when it is suppressed (FullOnly ablation or empty remainder).
func (m *dwMachine) partialYield(p *sim.Proc, c int) (sim.Yield, bool) {
	if m.ab.cfg.FullOnly {
		return sim.Yield{}, false
	}
	return m.echoYield(p, PartialCP{C: c})
}

// echoYield builds a broadcast of payload to the group remainder; ok=false
// when the remainder is empty (the broadcast consumes no round).
func (m *dwMachine) echoYield(p *sim.Proc, payload any) (sim.Yield, bool) {
	if len(m.remPIDs) == 0 {
		return sim.Yield{}, false
	}
	return broadcastYield(p, m.remPIDs, payload), true
}
