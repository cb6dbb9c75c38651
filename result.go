package doall

import "repro/internal/sim"

// Result reports the cost of a run in the paper's three measures — work,
// messages and time — plus bookkeeping.
type Result struct {
	// Work counts units performed, with multiplicity; WorkDistinct counts
	// distinct units.
	Work         int64
	WorkDistinct int
	// Messages counts point-to-point messages transmitted; MessagesByKind
	// breaks them down by payload kind (checkpoints, go-aheads, polls...).
	Messages       int64
	MessagesByKind map[string]int64
	// Rounds is the round by which every process had retired.
	Rounds int64
	// Complete reports whether every unit was performed. The paper's
	// guarantee: Complete holds whenever Survivors > 0.
	Complete bool
	// Survivors counts processes that terminated voluntarily; Crashes
	// counts injected failures.
	Survivors int
	Crashes   int
	// Restarts counts crash-recovery revivals; Dropped counts messages lost
	// in transit (sent, and so paid for, but never delivered); Omitted
	// counts sends suppressed at the source by omission faults (never sent,
	// not in Messages); Deferred counts sends that overflowed the
	// Config.Bandwidth budget and were queued for a later round.
	Restarts int64
	Dropped  int64
	Omitted  int64
	Deferred int64
	// Events counts simulated process steps; Rounds/Events measures how much
	// quiet time the engine fast-forwarded over.
	Events int64
	// Workers holds per-process statistics.
	Workers []WorkerStats
}

// Effort is work plus messages, the paper's combined cost measure.
func (r Result) Effort() int64 { return r.Work + r.Messages }

// WorkerStats summarises one process.
type WorkerStats struct {
	// Status is "terminated", "crashed" or "running".
	Status string
	// Work counts units this process performed; Sent counts messages it
	// transmitted; RetireRound is when it stopped.
	Work        int64
	Sent        int64
	RetireRound int64
}

func newResult(res sim.Result) Result {
	out := Result{
		Work:           res.WorkTotal,
		WorkDistinct:   res.WorkDistinct,
		Messages:       res.Messages,
		MessagesByKind: res.MessagesByKind,
		Rounds:         res.Rounds,
		Complete:       res.Complete(),
		Survivors:      res.Survivors,
		Crashes:        res.Crashes,
		Restarts:       res.Restarts,
		Dropped:        res.Dropped,
		Omitted:        res.Omitted,
		Deferred:       res.Deferred,
		Events:         res.Events,
		Workers:        make([]WorkerStats, len(res.PerProc)),
	}
	for i, p := range res.PerProc {
		out.Workers[i] = WorkerStats{
			Status:      p.Status.String(),
			Work:        p.Work,
			Sent:        p.Sent,
			RetireRound: p.RetireRound,
		}
	}
	return out
}
