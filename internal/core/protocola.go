package core

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/sim"
)

// ABConfig configures a run of Protocol A or Protocol B.
type ABConfig struct {
	// N is the number of work units, T the number of processes.
	N, T int
	// Assign maps the run onto engine PIDs / unit IDs (identity when zero).
	Assign Assignment
	// StartRound is the round at which the run logically begins (non-zero
	// when a protocol embeds A as a subroutine, e.g. Protocol D's revert).
	StartRound int64
	// Exec performs one unit of work (default: sim.Proc.StepWork). Only the
	// script bodies run a custom one, for the layered protocols; the stepper
	// builders refuse it.
	Exec WorkExecutor
	// FullOnly disables partial checkpoints (ablation X2): takers then know
	// only the last chunk boundary and must redo up to a whole chunk per
	// takeover instead of a subchunk. Valid only for Protocol A, whose
	// deadlines do not depend on hearing partial checkpoints.
	FullOnly bool
}

// abState is the per-process state shared by Protocols A and B: the group
// structure, timeouts, assignment maps and the DoWork procedure of Fig. 1.
type abState struct {
	cfg ABConfig
	as  assignment
	q   group.Sqrt
	tm  abTimeouts
	ex  WorkExecutor

	// groupPIDs lazily caches per-group engine PID lists for the stepper
	// machines (j-independent, so shared by every process of a run).
	groupPIDs [][]int
}

// pidsByGroup returns the engine PIDs of each group, 1-indexed, computed at
// most once. The ProtocolA/BSteppers builders fill it eagerly because one
// Procs value may back several engines concurrently; Protocol D's revert
// fills it lazily on its private abState inside a single engine goroutine.
func (ab *abState) pidsByGroup() [][]int {
	if ab.groupPIDs == nil {
		g := make([][]int, ab.q.G+1)
		for i := 1; i <= ab.q.G; i++ {
			g[i] = ab.as.pids(ab.q.Members(i))
		}
		ab.groupPIDs = g
	}
	return ab.groupPIDs
}

func newABState(cfg ABConfig) (*abState, error) {
	as, err := resolveAssignment(cfg.N, cfg.T, cfg.Assign)
	if err != nil {
		return nil, err
	}
	ex := cfg.Exec
	if ex == nil {
		ex = defaultExec
	}
	return &abState{
		cfg: cfg,
		as:  as,
		q:   group.NewSqrt(cfg.T),
		tm:  newABTimeouts(cfg.N, cfg.T),
		ex:  ex,
	}, nil
}

// ordMsg is a parsed checkpoint message: "(c)" when full is false, "(c, g)"
// when full is true. from is the logical sender position.
type ordMsg struct {
	from   int
	sentAt int64
	c      int
	full   bool
	g      int
}

// parse classifies an incoming message for positions of this run. It
// returns the parsed ordinary message (valid only when hasOrd), whether the
// message was a go-ahead, and ok=false for non-participants and foreign
// payloads. The ordMsg travels by value: parsing sits on the per-message hot
// path and must not allocate.
func (ab *abState) parse(m sim.Message) (om ordMsg, hasOrd, goAhead, ok bool) {
	from, k := ab.as.pos(m.From)
	if !k {
		return om, false, false, false
	}
	switch pl := m.Payload.(type) {
	case PartialCP:
		return ordMsg{from: from, sentAt: m.SentAt, c: pl.C}, true, false, true
	case FullCP:
		return ordMsg{from: from, sentAt: m.SentAt, c: pl.C, full: true, g: pl.G}, true, false, true
	case GoAhead:
		return om, false, true, true
	default:
		return om, false, false, false
	}
}

// isTermination reports whether an ordinary message tells position j that
// all work is done and j's group has been informed: "(P)" as part of a
// partial checkpoint or "(P, gⱼ)" as part of a full checkpoint.
func (ab *abState) isTermination(om *ordMsg, j int) bool {
	if om.c != ab.tm.p {
		return false
	}
	return !om.full || om.g == ab.q.GroupOf(j)
}

// newer reports whether b is a later ordinary message than a (nil a counts
// as oldest; ties broken toward the lower-numbered sender, following the
// paper's activation-chain convention).
func newer(a, b *ordMsg) bool {
	if a == nil {
		return true
	}
	if b.sentAt != a.sentAt {
		return b.sentAt > a.sentAt
	}
	return b.from < a.from
}

// RunProtocolA executes logical position j of Protocol A inside the given
// process script. It returns when the process terminates.
//
// Protocol A (paper §2.1): work is cut into P = t subchunks of ⌈n/t⌉ units;
// the single active process partial-checkpoints each completed subchunk to
// its own √t-group and full-checkpoints every chunk (√t subchunks) to all
// groups, checkpointing each group-notification back to its own group.
// Process j takes over at the absolute deadline DD(j) = j·(n + 3t), by which
// time all lower-numbered processes have provably retired.
func RunProtocolA(p *sim.Proc, cfg ABConfig, j int) error {
	ab, err := newABState(cfg)
	if err != nil {
		return err
	}
	if j < 0 || j >= cfg.T {
		return fmt.Errorf("core: position %d out of range [0,%d)", j, cfg.T)
	}
	if j == 0 {
		ab.doWork(p, j, nil)
		return nil
	}
	deadline := cfg.StartRound + ab.tm.dd(j)
	var lastVal ordMsg
	var last *ordMsg // nil until the first ordinary message arrives
	for {
		msgs := p.WaitUntil(deadline)
		for i := range msgs {
			om, hasOrd, _, ok := ab.parse(msgs[i])
			if !ok || !hasOrd {
				continue
			}
			if ab.isTermination(&om, j) {
				return nil
			}
			if newer(last, &om) {
				lastVal = om
				last = &lastVal
			}
		}
		if p.Now() >= deadline {
			ab.doWork(p, j, last)
			return nil
		}
	}
}

// doWork is the paper's DoWork procedure (Fig. 1): complete the takeover
// chores implied by the last ordinary message, then perform the remaining
// subchunks with partial and full checkpoints, then retire.
func (ab *abState) doWork(p *sim.Proc, j int, last *ordMsg) {
	p.SetActive(true)
	defer p.SetActive(false)
	gj := ab.q.GroupOf(j)
	c := 0
	switch {
	case last == nil:
		// Never heard anything: all lower processes died silently; start
		// from the beginning with no chores.
	case !last.full:
		// Last message "(c)": complete the partial checkpoint of c; if c is
		// a chunk boundary, redo its full checkpoint from the first later
		// group.
		c = last.c
		ab.partialCheckpoint(p, j, c)
		if ab.chunkBoundary(c) {
			ab.fullCheckpoint(p, j, c, gj+1)
		}
	case ab.q.GroupOf(last.from) != gj:
		// "(c, g)" from outside the group: then g = gⱼ (the sender was
		// informing j's group). Inform the rest of the group and proceed
		// with the full checkpoint from group gⱼ+1 (paper §2.1 prose).
		c = last.c
		ab.partialCheckpoint(p, j, c)
		ab.fullCheckpoint(p, j, c, gj+1)
	default:
		// "(c, g)" from within the group: the sender had informed group g
		// and was checkpointing that fact. Re-echo it to the remainder of
		// the group, then continue the full checkpoint from group g+1.
		c = last.c
		ab.echo(p, j, FullCP{C: c, G: last.g})
		ab.fullCheckpoint(p, j, c, last.g+1)
	}
	for sc := c + 1; sc <= ab.tm.p; sc++ {
		lo, hi := subchunkRange(ab.cfg.N, ab.tm.p, sc)
		for u := lo; u <= hi; u++ {
			ab.ex(p, ab.as.unitID(u))
		}
		ab.partialCheckpoint(p, j, sc)
		if ab.chunkBoundary(sc) {
			ab.fullCheckpoint(p, j, sc, gj+1)
		}
	}
}

// chunkBoundary reports whether subchunk c completes a chunk (a multiple of
// S, or the final subchunk when P is not a multiple of S).
func (ab *abState) chunkBoundary(c int) bool {
	return c > 0 && (c%ab.q.S == 0 || c == ab.tm.p)
}

// partialCheckpoint broadcasts "(c)" to the remainder of j's group
// (one round; skipped when the remainder is empty or under the FullOnly
// ablation).
func (ab *abState) partialCheckpoint(p *sim.Proc, j, c int) {
	if ab.cfg.FullOnly {
		return
	}
	ab.echo(p, j, PartialCP{C: c})
}

// echo broadcasts a payload to the remainder of j's group.
func (ab *abState) echo(p *sim.Proc, j int, payload any) {
	rem := ab.q.Remainder(j)
	if len(rem) == 0 {
		return
	}
	p.StepBroadcast(ab.as.pids(rem), payload)
}

// fullCheckpoint informs groups fromG..G that subchunk c is complete,
// checkpointing each notification back to j's own group (paper Fig. 1).
func (ab *abState) fullCheckpoint(p *sim.Proc, j, c, fromG int) {
	for g := fromG; g <= ab.q.G; g++ {
		pids := ab.as.pids(ab.q.Members(g))
		// Skip the round only when the group is just the sender itself (the
		// broadcast would be empty).
		if len(pids) > 1 || (len(pids) == 1 && pids[0] != p.ID()) {
			p.StepBroadcast(pids, FullCP{C: c, G: g})
		}
		ab.echo(p, j, FullCP{C: c, G: g})
	}
}

// ProtocolAScripts builds the per-process scripts of a standalone Protocol A
// run over engine PIDs 0..T-1.
func ProtocolAScripts(cfg ABConfig) (func(id int) sim.Script, error) {
	if _, err := newABState(cfg); err != nil {
		return nil, err
	}
	return func(id int) sim.Script {
		return func(p *sim.Proc) {
			// Errors cannot occur here: the config was validated above.
			_ = RunProtocolA(p, cfg, id)
		}
	}, nil
}
