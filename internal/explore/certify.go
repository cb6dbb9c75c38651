package explore

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/sim"
)

// Bounds are the per-run certification limits for a target; zero fields are
// unchecked (baseline protocols certify completion and invariants only).
// Effort is the paper's combined measure, work + messages.
type Bounds struct {
	Work     int64
	Messages int64
	Rounds   int64
	Effort   int64
}

// Target is one (protocol, n, t, f) instance under certification. NewProcs
// must build a fresh set of process bodies per call: a replay either builds
// its own or, for sim.Recoverable bodies, rewinds a set built earlier to
// its pristine snapshots (see harness). Runs execute through
// internal/core's pooled engines.
type Target struct {
	Protocol     string
	N, T         int
	MaxCrashes   int
	SingleActive bool
	// Symmetric declares the protocol exchangeable under PID renaming
	// (core.Protocol.Symmetric): renaming a schedule's victims renames the
	// execution and nothing else. Enumerate then walks canonical orbit
	// representatives only and weights each certificate by its orbit size.
	// SymmetryWitness (see canon.go) guards the declarations.
	Symmetric bool
	// MaxRound aborts runaway executions; an abort is reported as a
	// violation. 0 means the engine default.
	MaxRound int64
	// Bandwidth caps per-process outbound transmissions per round (the
	// congested-clique model; 0 = unlimited). The gossip-cap target
	// certifies its bounds under this cap.
	Bandwidth int
	NewProcs  func() (core.Procs, error)
	Bounds    Bounds
}

// NewTarget builds a certification target for a protocol named in
// core.Protocols; the entries that need a checkpoint count (uniform) are not
// offered. maxCrashes is the f the bounds assume; use t-1 or less to
// preserve the one-survivor guarantee. The target takes the entry's bounds,
// flags and bandwidth cap; the baselines without bounds certify the
// completion guarantee and the single-active invariant only.
func NewTarget(protocol string, n, t, maxCrashes int) (Target, error) {
	if t <= 0 || n < 0 {
		return Target{}, fmt.Errorf("explore: bad instance n=%d t=%d", n, t)
	}
	if maxCrashes < 0 || maxCrashes >= t {
		return Target{}, fmt.Errorf("explore: maxCrashes = %d, want 0..t-1", maxCrashes)
	}
	p, ok := core.LookupProtocol(protocol)
	if !ok || p.NeedsK {
		return Target{}, fmt.Errorf("explore: unknown protocol %q", protocol)
	}
	tg := Target{
		Protocol: protocol, N: n, T: t, MaxCrashes: maxCrashes,
		SingleActive: p.SingleActive, Symmetric: p.Symmetric,
		NewProcs: func() (core.Procs, error) { return p.Build(n, t, core.Params{}) },
	}
	if p.Bandwidth != nil {
		tg.Bandwidth = p.Bandwidth(t)
	}
	if p.Bounds == nil {
		return tg, nil
	}
	b := p.Bounds(n, t, maxCrashes)
	tg.Bounds = Bounds{Work: b.Work, Messages: b.Messages, Rounds: b.Rounds, Effort: satAdd(b.Work, b.Messages)}
	// A runaway execution must terminate the walk: abort well past the
	// certified round bound and report the abort as a violation. A saturated
	// round bound (Protocol C at larger n + t) keeps the engine default
	// instead, as does an unchecked one (trivial, whose rounds depend on the
	// slowdown factors in play).
	if b.Rounds > 0 && b.Rounds < countSat/4 {
		tg.MaxRound = 4 * b.Rounds
	}
	return tg, nil
}

// DefaultDepth probes the target failure-free and returns an action-depth
// horizon covering every process's committed actions plus slack for the
// extra takeover chores a crash schedule can induce.
func (tg Target) DefaultDepth() (int, error) {
	res, err := newHarness(tg).run(nil, -1)
	if err != nil {
		return 0, err
	}
	depth := int64(0)
	for _, p := range res.PerProc {
		if p.Actions > depth {
			depth = p.Actions
		}
	}
	return int(depth) + 2, nil
}

// harness replays decision vectors of one target on pooled engines, reusing
// across its runs everything a replay does not consume, so a walked schedule
// costs its engine steps and little else:
//
//   - one universal adversary, reset per run, and one profiling wrapper
//     around it with its profile buffers;
//   - the process bodies. When every stepper the target builds is
//     sim.Recoverable, they are built once and rewound to a pristine
//     snapshot before each run. Otherwise — the non-Recoverable targets,
//     single-checkpoint and naive — every run builds fresh ones.
//
// A harness belongs to one goroutine: each explore walker owns one, and
// Target.Certify runs a throwaway one.
type harness struct {
	tg   Target
	adv  adversary.Adversary
	padv profilingAdversary
	prof runProfile

	// bodies and their pristine snapshots, once built; nil while unbuilt or
	// when the target's bodies cannot rewind.
	bodies   []sim.Recoverable
	pristine []any
	steppers func(id int) sim.Stepper // hands out bodies
}

func newHarness(tg Target) *harness {
	h := &harness{tg: tg}
	h.padv = profilingAdversary{Adversary: &h.adv, prof: &h.prof}
	h.steppers = func(id int) sim.Stepper { return h.bodies[id] }
	return h
}

// run replays one decision vector. profile >= 0 additionally records that
// PID's profile (the sibling block's varying victim) into h.prof for the
// prefix-equivalence predicates; the adversary's collapse markers are read
// from h.adv afterwards.
func (h *harness) run(vec Vector, profile int) (sim.Result, error) {
	procs, err := h.procs()
	if err != nil {
		return sim.Result{}, err
	}
	h.adv.Reset(vec)
	var adv sim.Adversary = &h.adv
	if profile >= 0 {
		h.prof.reset(profile)
		adv = &h.padv
	}
	opt := core.RunOptions{Adversary: adv, MaxRound: h.tg.MaxRound, Bandwidth: h.tg.Bandwidth}
	if h.tg.SingleActive {
		opt.MaxActive = 1
	}
	return core.RunProcs(h.tg.N, h.tg.T, procs, opt)
}

// procs returns the process bodies of the next run: the built ones rewound
// to their pristine snapshots, or a fresh build. The first build of a
// stepper target keeps its bodies if every one is sim.Recoverable.
func (h *harness) procs() (core.Procs, error) {
	if h.bodies != nil {
		for id, b := range h.bodies {
			b.Restore(h.pristine[id])
		}
		return core.Procs{Steppers: h.steppers}, nil
	}
	pr, err := h.tg.NewProcs()
	if err != nil || pr.Steppers == nil {
		return pr, err
	}
	bodies := make([]sim.Recoverable, h.tg.T)
	pristine := make([]any, h.tg.T)
	for id := range bodies {
		rec, ok := pr.Steppers(id).(sim.Recoverable)
		if !ok {
			return pr, nil
		}
		bodies[id], pristine[id] = rec, rec.Snapshot()
	}
	h.bodies, h.pristine = bodies, pristine
	return core.Procs{Steppers: h.steppers}, nil
}

// certify replays one schedule and certifies the outcome.
func (h *harness) certify(vec Vector) Certification {
	res, err := h.run(vec, -1)
	if err != nil {
		return h.tg.certifyResult(vec, res, false, err)
	}
	collapsed := res.Crashes < vec.Crashes() || h.adv.OverDelivered() || h.adv.UnfiredFaults()
	return h.tg.certifyResult(vec, res, collapsed, nil)
}

// Violation is one certification failure, with the schedule that caused it
// as a replayable vector.
type Violation struct {
	Vector string
	Reason string
}

// Certification is the verdict on one replayed schedule.
type Certification struct {
	Vector     Vector
	Result     sim.Result
	Violations []Violation
	// Collapsed reports that the execution coincides with a canonically
	// smaller vector's: a planned fault never fired or a delivery choice
	// extended past the action's send list.
	Collapsed bool
}

// Certify replays one schedule and checks the completion guarantee, the
// invariants (via the engine) and the target's bounds.
func (tg Target) Certify(vec Vector) Certification {
	return newHarness(tg).certify(vec)
}

// certifyResult builds the certification verdict for a replay outcome —
// fresh or shared through the prefix-equivalence walk; the checks are a
// pure function of the result, which is what makes replay sharing sound.
func (tg Target) certifyResult(vec Vector, res sim.Result, collapsed bool, runErr error) Certification {
	cert := Certification{Vector: vec, Result: res}
	fail := func(format string, args ...any) {
		cert.Violations = append(cert.Violations, Violation{
			Vector: vec.String(), Reason: fmt.Sprintf(format, args...),
		})
	}
	if runErr != nil {
		fail("run error: %v", runErr)
		return cert
	}
	cert.Collapsed = collapsed
	if err := core.CheckCompletion(res); err != nil {
		fail("%v", err)
	}
	check := func(name string, measured, bound int64) {
		if bound > 0 && measured > bound {
			fail("%s %d exceeds bound %d", name, measured, bound)
		}
	}
	check("work", res.WorkTotal, tg.Bounds.Work)
	check("messages", res.Messages, tg.Bounds.Messages)
	check("rounds", res.Rounds, tg.Bounds.Rounds)
	check("effort", res.Effort(), tg.Bounds.Effort)
	return cert
}

// Extreme is the worst value of one metric over a walk, with the schedule
// that realized it. Value is -1 until something is observed.
type Extreme struct {
	Value   int64
	Vector  string
	Crashes int
}

// worstVectors is a walk range's scratch for its report's four Worst*
// extremes, in Report.worst order. A strict improvement copies its vector
// into a buffer reused across the range, and format renders each extreme's
// vector once, when the range's report is handed back: every range starts
// from -1, so its first schedules improve every extreme in turn.
type worstVectors [4]Vector

// format writes the vector of every observed extreme into r.
func (wv *worstVectors) format(r *Report) {
	for i, e := range r.worst() {
		if e.Value >= 0 {
			e.Vector = wv[i].String()
		}
	}
}

// maxViolations caps the violations retained verbatim in a report; the
// count keeps the full total.
const maxViolations = 16

// Report aggregates a schedule-space walk.
type Report struct {
	Protocol   string
	N, T       int
	MaxCrashes int
	Bounds     Bounds
	// Mode is the walk mode: "full" visits every schedule, "canonical"
	// (Symmetric targets) visits one orbit representative per PID-renaming
	// class and weights its certificate by the orbit size.
	Mode string
	// RawSpace is the space's raw schedule count (saturating at countSat).
	RawSpace int64
	// Schedules counts certified schedules — raw executions in full mode,
	// orbit-weighted certificates in canonical mode; Collapsed counts those
	// coinciding with a canonically smaller vector's execution (still
	// certified), on the same scale.
	Schedules int64
	Collapsed int64
	// Walked counts walk indices certified so far and WalkTotal the range
	// this report is responsible for (the whole walk, or its shard);
	// Walked < WalkTotal marks a paused, resumable report.
	Walked    int64
	WalkTotal int64
	// EngineRuns counts fresh engine replays spent, parent-profiling runs
	// included: Schedules/EngineRuns is the combined symmetry + pruning
	// win. It depends on where the walk's chunk boundaries fall (a sibling
	// block split across a shard or resume boundary re-profiles its
	// parent), so it is diagnostics, not part of the byte-identical report
	// surface: Text omits it and resumed/sharded runs may differ here.
	EngineRuns int64
	// ByCrashes histograms executions by crashes actually fired.
	ByCrashes []int64
	// WorstX are the worst observed metrics with their replayable vectors.
	WorstWork     Extreme
	WorstMessages Extreme
	WorstRounds   Extreme
	WorstEffort   Extreme
	// Violations retains the first maxViolations failures in index order;
	// ViolationCount is the full total (orbit-weighted in canonical mode).
	// A clean certification has 0.
	Violations     []Violation
	ViolationCount int64
}

// worst lists the report's extremes in a fixed order: work, messages,
// rounds, effort.
func (r *Report) worst() [4]*Extreme {
	return [...]*Extreme{&r.WorstWork, &r.WorstMessages, &r.WorstRounds, &r.WorstEffort}
}

// observe folds one certification in, weighted by its orbit size (1 in
// full mode). Each extreme it improves keeps its vector in worst, for
// worst.format to render.
func (r *Report) observe(cert Certification, orbit int64, worst *worstVectors) {
	r.Walked++
	r.Schedules = satAdd(r.Schedules, orbit)
	if cert.Collapsed {
		r.Collapsed = satAdd(r.Collapsed, orbit)
	}
	crashes := cert.Result.Crashes
	for len(r.ByCrashes) <= crashes {
		r.ByCrashes = append(r.ByCrashes, 0)
	}
	r.ByCrashes[crashes] = satAdd(r.ByCrashes[crashes], orbit)
	res := cert.Result
	values := [...]int64{res.WorkTotal, res.Messages, res.Rounds, res.Effort()}
	for i, e := range r.worst() {
		// Strict improvement only: on ties the first vector in index order
		// wins, which keeps reports independent of sharding.
		if values[i] > e.Value {
			e.Value, e.Crashes = values[i], crashes
			worst[i] = append(worst[i][:0], cert.Vector...)
		}
	}
	if len(cert.Violations) > 0 {
		r.ViolationCount = satAdd(r.ViolationCount, satMul(orbit, int64(len(cert.Violations))))
		for _, v := range cert.Violations {
			if len(r.Violations) < maxViolations {
				r.Violations = append(r.Violations, v)
			}
		}
	}
}

// merge folds b (a later shard) into r; shards are merged in index order so
// the fold is deterministic for every worker count.
func (r *Report) merge(b *Report) {
	r.Schedules = satAdd(r.Schedules, b.Schedules)
	r.Collapsed = satAdd(r.Collapsed, b.Collapsed)
	r.Walked += b.Walked
	r.EngineRuns += b.EngineRuns
	for len(r.ByCrashes) < len(b.ByCrashes) {
		r.ByCrashes = append(r.ByCrashes, 0)
	}
	for i, c := range b.ByCrashes {
		r.ByCrashes[i] = satAdd(r.ByCrashes[i], c)
	}
	mergeExtreme := func(a *Extreme, b Extreme) {
		if b.Value > a.Value { // ties keep the earlier shard's vector
			*a = b
		}
	}
	mergeExtreme(&r.WorstWork, b.WorstWork)
	mergeExtreme(&r.WorstMessages, b.WorstMessages)
	mergeExtreme(&r.WorstRounds, b.WorstRounds)
	mergeExtreme(&r.WorstEffort, b.WorstEffort)
	for _, v := range b.Violations {
		if len(r.Violations) < maxViolations {
			r.Violations = append(r.Violations, v)
		}
	}
	r.ViolationCount = satAdd(r.ViolationCount, b.ViolationCount)
}

// Shard names one of Count deterministic contiguous slices of a walk, for
// fanning an enumeration out across OS processes: shard i covers walk
// indices [i·total/Count, (i+1)·total/Count). The zero Shard is the whole
// walk. Finished shard checkpoints merge back via MergeCheckpoints.
type Shard struct {
	Index, Count int
}

func (sh Shard) rangeOf(total int64) (lo, hi int64, err error) {
	if sh.Count == 0 && sh.Index == 0 {
		return 0, total, nil
	}
	if sh.Count <= 0 || sh.Index < 0 || sh.Index >= sh.Count {
		return 0, 0, fmt.Errorf("explore: bad shard %d/%d", sh.Index, sh.Count)
	}
	lo = int64(sh.Index) * (total / int64(sh.Count))
	hi = int64(sh.Index+1) * (total / int64(sh.Count))
	if sh.Index == sh.Count-1 {
		hi = total
	}
	return lo, hi, nil
}

// Options configures a schedule-space walk.
type Options struct {
	// Jobs caps the parallel shards (0 = GOMAXPROCS, 1 = sequential); the
	// report is identical for every value.
	Jobs int
	// MaxSchedules refuses walks longer than this (default 1<<22). The
	// guard applies to the walked count — canonical representatives for
	// Symmetric targets — so symmetry reduction makes previously refused
	// spaces tractable instead of erroring.
	MaxSchedules int64
	// Full forces full (non-canonical) enumeration even for Symmetric
	// targets, e.g. for symmetry cross-checks.
	Full bool
	// NoPrune disables prefix-equivalence pruning: every schedule replays
	// from round 0. Reports are byte-identical either way (modulo
	// EngineRuns); this exists for the equivalence property tests and as
	// an escape hatch.
	NoPrune bool
	// Force overrides the hard raw-schedule ceiling (rawCeiling); beyond
	// it the weighted counters saturate at countSat.
	Force bool
	// Checkpoint, when set, persists enumeration progress to this file
	// after every chunk of CheckpointEvery indices, so a killed run
	// resumes instead of restarting.
	Checkpoint string
	// Resume continues from the Checkpoint file (which must match the
	// target, space, mode and shard) instead of starting fresh.
	Resume bool
	// CheckpointEvery is the chunk length between checkpoint writes
	// (default 1<<14 walk indices).
	CheckpointEvery int64
	// StopAfter, when > 0, pauses the walk at the first chunk boundary at
	// or past this many indices processed in this invocation (requires
	// Checkpoint). The report comes back with Walked < WalkTotal; a
	// Resume run completes it. This is how the CI resume smoke kills a
	// run deterministically.
	StopAfter int64
	// Shard restricts the walk to one deterministic contiguous slice.
	Shard Shard
}

func (o Options) maxSchedules() int64 {
	if o.MaxSchedules > 0 {
		return o.MaxSchedules
	}
	return 1 << 22
}

// rawCeiling is the hard raw-schedule ceiling: above it even orbit-weighted
// certificate counting saturates, so Enumerate refuses unless Options.Force
// acknowledges the saturation. A var so the guard tests can lower it.
var rawCeiling = int64(1) << 40

// shardSize is the fixed per-shard schedule count for the parallel fan-out.
// It must not depend on the worker count: shard boundaries define which
// vector a tie-broken extreme reports, and those are pinned byte-identical
// across -jobs.
const shardSize = 1024

// Enumerate exhaustively certifies the space: every schedule in full mode,
// every canonical orbit representative (weighted by orbit size) for
// Symmetric targets. Chunks fan out via the deterministic batch runner over
// pooled engines; within each walk range, sibling blocks share replays via
// prefix-equivalence pruning. See Options for checkpointing, sharding and
// the size guards.
func (tg Target) Enumerate(space Space, opt Options) (*Report, error) {
	norm, err := space.normalize()
	if err != nil {
		return nil, err
	}
	canonical := tg.Symmetric && !opt.Full
	mode := "full"
	raw := norm.count()
	total := raw
	if canonical {
		mode = "canonical"
		total = norm.canonCount()
	}
	if raw >= rawCeiling && !opt.Force {
		return nil, fmt.Errorf("explore: space has %d raw schedules, at or above the %d hard ceiling; counters would saturate — pass Force (doall explore -force) to certify anyway",
			raw, rawCeiling)
	}
	if total > opt.maxSchedules() {
		if canonical {
			return nil, fmt.Errorf("explore: space has %d canonical representatives (%d raw), above the %d walk limit (shrink depth/crashes or raise MaxSchedules)",
				total, raw, opt.maxSchedules())
		}
		return nil, fmt.Errorf("explore: space has %d schedules, above the %d limit (shrink depth/crashes or raise MaxSchedules)",
			total, opt.maxSchedules())
	}
	lo, hi, err := opt.Shard.rangeOf(total)
	if err != nil {
		return nil, err
	}
	if opt.StopAfter > 0 && opt.Checkpoint == "" {
		return nil, fmt.Errorf("explore: StopAfter needs a Checkpoint path to pause into")
	}
	cursor := lo
	out := tg.newReport(mode, raw)
	if opt.Resume {
		if opt.Checkpoint == "" {
			return nil, fmt.Errorf("explore: Resume needs a Checkpoint path")
		}
		ck, err := LoadCheckpoint(opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		if err := ck.matches(tg, norm, mode, opt.Shard, total); err != nil {
			return nil, err
		}
		cursor = ck.Cursor
		out = ck.Report
	}
	chunk := opt.CheckpointEvery
	if chunk <= 0 {
		chunk = 1 << 14
	}
	processed := int64(0)
	for cursor < hi {
		end := min(cursor+chunk, hi)
		parts := batch.MapChunks(opt.Jobs, cursor, end, shardSize, func(a, b int64) *Report {
			return tg.walkRange(norm, canonical, a, b, opt.NoPrune)
		})
		for _, p := range parts {
			out.merge(p)
		}
		processed += end - cursor
		cursor = end
		if opt.Checkpoint != "" {
			if err := tg.saveCheckpoint(opt.Checkpoint, norm, mode, opt.Shard, lo, hi, cursor, total, out); err != nil {
				return nil, err
			}
		}
		if opt.StopAfter > 0 && processed >= opt.StopAfter && cursor < hi {
			break
		}
	}
	out.WalkTotal = hi - lo
	return out, nil
}

// walkRange certifies walk indices [lo, hi) sequentially, sharing replays
// across sibling blocks unless noPrune. It is the unit batch.MapChunks fans
// out; reports fold deterministically because observation order is index
// order regardless of worker count.
func (tg Target) walkRange(s Space, canonical bool, lo, hi int64, noPrune bool) *Report {
	raw := int64(0) // per-part reports carry no RawSpace; the outer report does
	rep := tg.newReport("", raw)
	rep.RawSpace = 0
	w := walker{h: newHarness(tg), s: s, canonical: canonical, noPrune: noPrune, rep: rep}
	if !canonical {
		w.unrank = newUnranker(s)
	}
	for i := lo; i < hi; i++ {
		w.step(i)
	}
	w.worst.format(rep)
	return rep
}

// walker holds the per-range walk state: the run harness, the current
// sibling block's parent replay and profile (in the harness), and the
// replays of firing siblings, indexed by effKey.
type walker struct {
	h         *harness
	s         Space
	unrank    unranker // full mode only
	canonical bool
	noPrune   bool
	rep       *Report
	worst     worstVectors

	// Current block identity: victim count, leading victims and digits.
	blockValid   bool
	blockK       int
	blockVictims []int
	blockDigits  []int

	parentRes sim.Result
	parentErr error
	cache     map[effKey]int // index into runs
	runs      []cachedRun

	victims []int // scratch
	digits  []int // scratch
	// vec is the current index's vector. Within a sibling block its leading
	// k-1 choices are the parent's, decoded once by startBlock.
	vec Vector
}

func (w *walker) step(i int64) {
	var orbit int64 = 1
	if w.canonical {
		w.digits = w.s.canonDecode(i, w.digits)
		k := len(w.digits)
		w.victims = append(w.victims[:0], w.s.Victims[:k]...)
		orbit = w.s.orbitSize(w.digits)
	} else {
		w.victims, w.digits = w.unrank.fullDecode(i, w.victims, w.digits)
	}
	k := len(w.digits)
	if k == 0 {
		w.replay(nil, orbit)
		return
	}
	if w.noPrune {
		w.vec = w.vec[:0]
		for j := 0; j < k; j++ {
			w.vec = append(w.vec, w.s.decodeChoice(w.victims[j], w.digits[j]))
		}
		w.replay(w.vec, orbit)
		return
	}
	if !w.sameBlock(k) {
		w.startBlock(k)
	}
	w.vec = append(w.vec[:k-1], w.s.decodeChoice(w.victims[k-1], w.digits[k-1]))
	vec := w.vec
	last := &vec[k-1]
	if w.parentErr != nil {
		// No usable profile: replay directly.
		w.replay(vec, orbit)
		return
	}
	fires, key, overDel, dedup := w.h.prof.classify(last, w.parentRes.Rounds)
	if !fires {
		// The child's execution is the parent's; the planned fault never
		// firing makes the schedule collapsed by definition.
		w.observe(w.h.tg.certifyResult(vec, w.parentRes, true, nil), orbit)
		return
	}
	if !dedup {
		w.replay(vec, orbit)
		return
	}
	j, cached := w.cache[key]
	if cached && w.runs[j].usableFor(overDel) {
		cr := &w.runs[j]
		w.observe(w.h.tg.certifyResult(vec, cr.res, cr.collapsedFor(vec, overDel), cr.err), orbit)
		return
	}
	res, err := w.h.run(vec, -1)
	w.rep.EngineRuns++
	cr := cachedRun{res: res, err: err, ownOverDel: overDel}
	var collapsed bool
	if err == nil {
		cr.overDel = w.h.adv.OverDelivered()
		cr.unfired = w.h.adv.UnfiredFaults()
		collapsed = res.Crashes < vec.Crashes() || cr.overDel || cr.unfired
	}
	switch {
	case !cached:
		w.cache[key] = len(w.runs)
		w.runs = append(w.runs, cr)
	case w.runs[j].ownOverDel && !overDel:
		w.runs[j] = cr
	}
	w.observe(w.h.tg.certifyResult(vec, res, collapsed, err), orbit)
}

// replay certifies vec from a fresh engine run.
func (w *walker) replay(vec Vector, orbit int64) {
	w.rep.EngineRuns++
	w.observe(w.h.certify(vec), orbit)
}

// observe folds one certification into the range's report.
func (w *walker) observe(cert Certification, orbit int64) { w.rep.observe(cert, orbit, &w.worst) }

// sameBlock reports whether index state (k, leading victims, leading
// digits) still matches the current sibling block.
func (w *walker) sameBlock(k int) bool {
	if !w.blockValid || k != w.blockK {
		return false
	}
	for j := 0; j < k-1; j++ {
		if w.victims[j] != w.blockVictims[j] || w.digits[j] != w.blockDigits[j] {
			return false
		}
	}
	// The varying victim must match too (in full mode the victim set
	// changes while leading digits may not).
	return w.victims[k-1] == w.blockVictims[k-1]
}

// startBlock profiles the new block's parent: the leading k-1 choices,
// decoded into vec, replayed once observing the varying victim.
func (w *walker) startBlock(k int) {
	w.blockValid = true
	w.blockK = k
	w.blockVictims = append(w.blockVictims[:0], w.victims[:k]...)
	w.blockDigits = append(w.blockDigits[:0], w.digits[:k]...)
	w.vec = w.vec[:0]
	for j := 0; j < k-1; j++ {
		w.vec = append(w.vec, w.s.decodeChoice(w.victims[j], w.digits[j]))
	}
	w.parentRes, w.parentErr = w.h.run(w.vec, w.victims[k-1])
	w.rep.EngineRuns++
	if w.cache == nil {
		w.cache = make(map[effKey]int, 8)
	}
	clear(w.cache)
	clear(w.runs) // drop the previous block's results
	w.runs = w.runs[:0]
}

func (tg Target) newReport(mode string, raw int64) *Report {
	return &Report{
		Protocol: tg.Protocol, N: tg.N, T: tg.T,
		MaxCrashes: tg.MaxCrashes, Bounds: tg.Bounds,
		Mode: mode, RawSpace: raw,
		WorstWork:     Extreme{Value: -1},
		WorstMessages: Extreme{Value: -1},
		WorstRounds:   Extreme{Value: -1},
		WorstEffort:   Extreme{Value: -1},
	}
}
