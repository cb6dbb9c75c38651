package core

import (
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
	return &abState{
		cfg: cfg,
		as:  as,
		q:   group.NewSqrt(cfg.T),
		tm:  newABTimeouts(cfg.N, cfg.T),
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

// chunkBoundary reports whether subchunk c completes a chunk (a multiple of
// S, or the final subchunk when P is not a multiple of S).
func (ab *abState) chunkBoundary(c int) bool {
	return c > 0 && (c%ab.q.S == 0 || c == ab.tm.p)
}
