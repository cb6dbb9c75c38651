package explore

import (
	"fmt"
	"strings"
)

// Text renders the report as the deterministic plain-text block `doall
// explore` prints: a pure function of the report, so output is
// byte-identical for every worker count.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule space: protocol %s, n=%d, t=%d, <=%d crashes\n",
		r.Protocol, r.N, r.T, r.MaxCrashes)
	fmt.Fprintf(&b, "schedules:      %d certified, %d collapsed onto smaller vectors\n",
		r.Schedules, r.Collapsed)
	// Coverage: raw space vs indices actually walked. EngineRuns is
	// deliberately absent — it depends on chunk boundaries (see Report),
	// and this block is the byte-identity surface for shard merges and
	// checkpoint resumes.
	switch r.Mode {
	case "canonical":
		fmt.Fprintf(&b, "coverage:       %d raw schedules via %d canonical representatives (canonical mode)\n",
			r.RawSpace, r.Walked)
	case "full":
		fmt.Fprintf(&b, "coverage:       %d raw schedules, %d walked (full mode)\n",
			r.RawSpace, r.Walked)
	}
	if r.WalkTotal > 0 && r.Walked < r.WalkTotal {
		fmt.Fprintf(&b, "paused:         %d of %d indices walked; resume from the checkpoint\n",
			r.Walked, r.WalkTotal)
	}
	b.WriteString("crashes fired: ")
	for i, c := range r.ByCrashes {
		fmt.Fprintf(&b, " %d:%d", i, c)
	}
	b.WriteString("\n")
	if r.Bounds.Work > 0 {
		fmt.Fprintf(&b, "bounds:         work <= %d, messages <= %d, rounds <= %d, effort <= %d\n",
			r.Bounds.Work, r.Bounds.Messages, r.Bounds.Rounds, r.Bounds.Effort)
	} else {
		b.WriteString("bounds:         completion guarantee and invariants only\n")
	}
	worst := func(name string, e Extreme) {
		if e.Value < 0 {
			return
		}
		fmt.Fprintf(&b, "worst %-9s %d (%d crashes) via %s\n", name+":", e.Value, e.Crashes, e.Vector)
	}
	worst("work", r.WorstWork)
	worst("messages", r.WorstMessages)
	worst("rounds", r.WorstRounds)
	worst("effort", r.WorstEffort)
	fmt.Fprintf(&b, "violations:     %d\n", r.ViolationCount)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s: %s\n", v.Vector, v.Reason)
	}
	if r.ViolationCount > int64(len(r.Violations)) {
		fmt.Fprintf(&b, "  ... and %d more\n", r.ViolationCount-int64(len(r.Violations)))
	}
	return b.String()
}

// Text renders the search outcome as the deterministic plain-text block
// `doall explore -mode search` prints.
func (s SearchResult) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "search:         %d schedules evaluated, %d hill-climb steps, depth %d\n",
		s.Evaluated, s.Steps, s.Depth)
	fmt.Fprintf(&b, "worst found:    %d (%d crashes) via %s\n",
		s.Best.Value, s.Best.Crashes, s.Best.Vector)
	fmt.Fprintf(&b, "violations:     %d\n", s.ViolationCount)
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s: %s\n", v.Vector, v.Reason)
	}
	if s.ViolationCount > int64(len(s.Violations)) {
		fmt.Fprintf(&b, "  ... and %d more\n", s.ViolationCount-int64(len(s.Violations)))
	}
	return b.String()
}
