// Package live is the concurrent execution plane: it runs the simulator's
// protocol state machines (sim.Stepper implementations) unchanged over real
// goroutines — one per process — exchanging frames through a pluggable
// Transport (in-process channels, or TCP/unix sockets to workers in other
// OS processes).
//
// The plane is the second driver of sim.RoundCore, the one statement of
// round semantics; the sim Engine is the first. It implements none of those
// semantics itself — no delivery, no fault injection, no accounting — only
// how a round's steps get taken: a BSP-style round barrier, implemented
// sense-reversing. Each round the coordinator token holder opens the round
// on the core, arms the RoundBatch (one slot per runnable process, the round
// number as the sense value, an atomic count of expected arrivals) and
// grants every runnable process one step, its staged mail riding the grant.
// The processes step concurrently — genuinely in parallel, with the
// transport free to delay and reorder their yields — and each finished
// round lands in the batch as a single YieldFrame hop. The arrival that
// completes the batch wins the coordinator token and, on its own goroutine,
// commits the collected yields to the core in ascending PID order, closes
// the round and opens the next. Same core, same call order: the plane's
// Result (and error) reflect.DeepEqual the single-threaded engine's for the
// same configuration by construction — TestLivePlaneEquivalence and the
// conformance suite check the two drivers for every protocol × adversary ×
// grid — while the execution underneath is true multi-goroutine
// concurrency, verified race-clean under `go test -race`. Because the token
// rides the frames instead of a dedicated coordinator goroutine, a solo
// runnable process re-grants itself without a single goroutine handoff —
// the common case in single-active protocols, and the reason the plane's
// wall-clock cost tracks the engine's instead of the scheduler's.
//
// Fault injection is therefore the engine's: replaying an explore.Vector
// schedule against the live plane is Config{Adversary: vec.Adversary()},
// nothing more. What the plane adds is the sim.Body the core calls back:
// a crashed worker is checkpointed and left parked for revival, or torn
// down with a kill grant — crashing a real goroutine mid-broadcast.
//
// The package also hosts the fully asynchronous plane (RunAsync, over a
// Network and a Detector): the same Steppers with no rounds, no barrier,
// arbitrary message delays and a failure detector instead of deadlines.
// The barrier plane and the async plane are the two ends of the liveness
// spectrum; DESIGN.md §6 maps the territory.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Config parameterises a live run. The fields mirror sim.Config: a config
// run on either plane must mean the same thing.
type Config struct {
	// NumProcs is the number of processes t (one goroutine each).
	NumProcs int
	// NumUnits is the number of work units n.
	NumUnits int
	// Adversary is the fault injector (nil: failure-free). Any sim.Adversary
	// works — explore.Vector replay included.
	Adversary sim.Adversary
	// MaxRound aborts runs that exceed this round (0 = a large default).
	MaxRound int64
	// MaxActive, when > 0, verifies the at-most-MaxActive invariant after
	// every round.
	MaxActive int
	// Bandwidth, when > 0, caps the messages each process may transmit per
	// round, deferring the overflow exactly as sim.Config.Bandwidth does.
	Bandwidth int
	// DetailedMetrics enables per-kind message counting.
	DetailedMetrics bool
	// Tracer, when non-nil, receives one event per committed action, in the
	// exact order the sim engine emits them. Calls are serialized (the
	// coordinator token guarantees mutual exclusion) but arrive on whichever
	// worker goroutine holds the token, not on the Run caller's.
	Tracer func(sim.Event)
	// Transport carries the barrier traffic; nil means an in-process
	// channel transport with zero latency, owned and reused by the plane.
	// A Transport implementing WorkerHoster (the wire transport) switches
	// the plane into remote mode: the steppers func passed to New/Run is
	// ignored (may be nil) and the processes live wherever the transport's
	// workers are hosted.
	Transport Transport
}

// worker is what the plane itself keeps per process; everything else about
// it is in the round core's book. The *sim.Proc is worker-owned while a step
// is in flight; the token holder touches it only between the process's steps
// (grant frames and barrier arrivals establish the happens-before edges).
type worker struct {
	p *sim.Proc // nil in remote mode: the process lives in another OS process
	// killed marks the worker goroutine torn down (crash without checkpoint,
	// halt, panic or shutdown) or its remote host process gone.
	killed bool
	// label mirrors the state label a remote worker's yield frames report.
	label string
}

// yieldSlot holds one collected yield until the PID-ordered commit. armed
// marks the slot as expecting a frame for the round in flight; present
// marks the frame as landed.
type yieldSlot struct {
	armed    bool
	present  bool
	yield    sim.Yield
	panicVal any
	panicked bool

	// Remote-mode frame extras (see YieldFrame).
	label  string
	active bool
	died   bool
}

// RoundBatch is the arrival half of the plane's sense-reversing barrier:
// the PID-indexed batch of yield frames for the round in flight. The
// coordinator arms one slot per granted process and publishes the round as
// the sense value and the grant count as the pending counter before the
// first grant goes out; workers' frames then land via Arrive in whatever
// order the transport produces. The arrival that brings pending to zero
// wins the coordinator token and runs the serial phases (commit, faults,
// delivery, fast-forward, next grant) inline on its own goroutine — there
// is no dedicated coordinator goroutine to wake, which is what removes the
// per-round handoff tax. Frames carrying a stale sense or an unarmed PID
// are dropped without touching the counter, so a transport that replays or
// reorders frames cannot release the barrier early; only the granted
// worker's own (possibly panicked) frame can.
type RoundBatch struct {
	pl      *Plane
	sense   atomic.Int64 // the round currently armed (-1 when idle)
	pending atomic.Int64 // granted frames still missing this round
	slots   []yieldSlot
}

var _ YieldSink = (*RoundBatch)(nil)

// Arrive implements YieldSink: it files one worker's frame into its armed
// slot and, on completing the batch, runs the coordinator turn for the
// round. Safe for concurrent use by any number of transport goroutines.
func (rb *RoundBatch) Arrive(f YieldFrame) {
	if f.PID < 0 || f.PID >= len(rb.slots) || f.Round != rb.sense.Load() {
		return // stale or alien frame: transport contract violation, dropped
	}
	s := &rb.slots[f.PID]
	if !s.armed || s.present {
		return
	}
	s.present = true
	s.yield, s.panicVal, s.panicked = f.Yield, f.PanicVal, f.Panicked
	s.label, s.active, s.died = f.Label, f.Active, f.Died
	if rb.pending.Add(-1) == 0 {
		rb.pl.turn(false)
	}
}

// Plane is the barrier driver of the round core: it steps every runnable
// process concurrently on its own goroutine and hands the collected yields
// to the core in ascending PID order. All round semantics are the core's;
// the plane owns the barrier, the workers and the transport. A Plane built
// with New is single-use; the package-level Run recycles planes (the core
// with its book and buffers, process handles, frame slots and the default
// transport included) through an internal sync.Pool, mirroring the engine's
// runPooled.
type Plane struct {
	rc sim.RoundCore
	tr Transport
	// homeTr is the plane-owned default transport, built lazily for runs
	// without a Config.Transport and reused across pooled runs (its grant
	// channels survive; Close is never called on it).
	homeTr *ChanTransport
	ownTr  bool
	// hoster is non-nil in remote mode (a WorkerHoster transport): the
	// workers live in other OS processes, so the plane builds no sim.Procs
	// and spawns no worker goroutines, and relays per-process operations.
	hoster WorkerHoster

	// allWorkers retains every worker slot ever used by this plane so pooled
	// reuse recycles the sim.Proc values; workers is the current run's prefix.
	allWorkers []worker
	workers    []worker

	batch RoundBatch
	// grants lists the PIDs granted a step this round, ascending.
	grants []int
	done   chan struct{}

	wg      sync.WaitGroup
	started bool
}

// New builds a plane; steppers(id) supplies each process's body.
func New(cfg Config, steppers func(id int) sim.Stepper) *Plane {
	pl := &Plane{}
	pl.reset(cfg, steppers)
	return pl
}

// planePool recycles planes across package-level Run calls: the live
// counterpart of the engine's runPooled, with the same reset-then-scrub
// discipline.
var planePool = sync.Pool{New: func() any { return &Plane{} }}

// Run executes a complete run on a pooled plane: behaviourally identical to
// New(cfg, steppers).Run(), but the round core, process handles, frame slots
// and the default transport are recycled across calls.
func Run(cfg Config, steppers func(id int) sim.Stepper) (sim.Result, error) {
	pl := planePool.Get().(*Plane)
	pl.reset(cfg, steppers)
	res, err := pl.Run()
	pl.scrub()
	planePool.Put(pl)
	return res, err
}

// reset readies a (possibly recycled) plane for one run.
func (pl *Plane) reset(cfg Config, steppers func(id int) sim.Stepper) {
	pl.ownTr = cfg.Transport == nil
	if pl.ownTr {
		if pl.homeTr == nil {
			pl.homeTr = NewChanTransport(Latency{})
		}
		cfg.Transport = pl.homeTr
	}
	pl.tr = cfg.Transport
	pl.hoster, _ = cfg.Transport.(WorkerHoster)
	pl.rc.Reset(sim.Config{
		NumProcs: cfg.NumProcs, NumUnits: cfg.NumUnits, Adversary: cfg.Adversary,
		MaxRound: cfg.MaxRound, MaxActive: cfg.MaxActive, Bandwidth: cfg.Bandwidth,
		DetailedMetrics: cfg.DetailedMetrics, Tracer: cfg.Tracer,
	}, (*planeBody)(pl))
	if n := cfg.NumProcs; n <= cap(pl.batch.slots) {
		pl.batch.slots = pl.batch.slots[:n]
	} else {
		pl.batch.slots = make([]yieldSlot, n)
	}
	pl.batch.pl = pl
	pl.batch.sense.Store(-1)
	pl.batch.pending.Store(0)
	pl.started = false
	pl.done = nil
	if n := cfg.NumProcs; n > len(pl.allWorkers) {
		pl.allWorkers = append(pl.allWorkers, make([]worker, n-len(pl.allWorkers))...)
	}
	pl.workers = pl.allWorkers[:cfg.NumProcs]
	for id := range pl.workers {
		w := &pl.workers[id]
		w.killed, w.label = false, ""
		if pl.hoster != nil {
			continue
		}
		if w.p == nil {
			w.p = sim.NewHostedProc(&pl.rc, id, steppers(id))
		} else {
			w.p.Rehost(&pl.rc, id, steppers(id))
		}
	}
}

// scrub runs after a pooled run: it releases every payload reference the
// run parked in the plane's recycled buffers (the core's, frame slots, Proc
// internals), so an idle plane sitting in the pool does not keep the
// previous run's data alive. Only the finished run's workers are touched —
// allWorkers beyond NumProcs were scrubbed by the last run that used them.
func (pl *Plane) scrub() {
	pl.rc.Scrub()
	clear(pl.batch.slots)
	for i := range pl.workers {
		if p := pl.workers[i].p; p != nil { // nil for slots only ever used by remote runs
			p.Scrub()
		}
	}
}

// work is the per-process goroutine: receive a grant, deliver its messages
// into the local inbox, take one step, send the whole round's output back
// as one frame. It owns the *sim.Proc for the duration of the step; panics
// in the process body are converted to frames by TryStep so the run fails
// deterministically.
func (pl *Plane) work(pid int) {
	defer pl.wg.Done()
	p := pl.workers[pid].p
	for {
		g, ok := pl.tr.RecvGrant(pid)
		if !ok || g.Kill {
			return
		}
		if g.Round != p.Now() {
			// The transport delivered a stale or reordered grant; surface it
			// through the deterministic failure path instead of stepping the
			// process in the wrong round.
			pl.tr.SendYield(YieldFrame{PID: pid, Round: p.Now(), Panicked: true, PanicVal: fmt.Sprintf(
				"live: transport granted round %d to proc %d at round %d", g.Round, pid, p.Now())})
			continue
		}
		for _, m := range g.Msgs {
			p.Deliver(m)
		}
		y, pv, panicked := p.TryStep()
		pl.tr.SendYield(YieldFrame{PID: pid, Round: g.Round, Yield: y, PanicVal: pv, Panicked: panicked})
	}
}

// Run executes the run to completion and returns the aggregated metrics.
// The caller's goroutine runs the opening coordinator turn, then blocks
// until some token holder declares the run over; the round loop itself is
// the engine's — the same core phases in the same order — executed by
// whichever goroutine completes each round's batch.
func (pl *Plane) Run() (sim.Result, error) {
	if pl.started {
		return sim.Result{}, fmt.Errorf("live: Plane is single-use; build a new one per run")
	}
	pl.started = true
	pl.done = make(chan struct{})
	pl.tr.Open(len(pl.workers), &pl.batch)
	if pl.hoster == nil {
		pl.wg.Add(len(pl.workers))
		for id := range pl.workers {
			go pl.work(id)
		}
	}
	defer pl.shutdown()
	pl.turn(true)
	<-pl.done
	return pl.rc.Finish()
}

// turn is one tenure of the coordinator token. Unless this is the opening
// turn it first commits the round whose batch just completed and closes it;
// it then opens rounds until either a new set of grants is in flight (the
// token parks at the barrier, to be picked up by the round's last arrival)
// or the run is over (finish releases Run's goroutine). A round that opens
// with nothing runnable is closed straight away: the core fast-forwards.
// Exactly one goroutine executes turn at any time: the token passes from
// Run's goroutine to the last arriver of each batch, with the barrier's
// atomic counter carrying the happens-before edge for all plane and core
// state.
func (pl *Plane) turn(opening bool) {
	if !opening {
		pl.commitBatch()
		if !pl.rc.CloseRound() {
			pl.finish()
			return
		}
	}
	for pl.rc.OpenRound() {
		if pl.grantRunnable() {
			return // token parked at the barrier until the batch completes
		}
		if !pl.rc.CloseRound() {
			break
		}
	}
	pl.finish()
}

// finish declares the run over, releasing Run's goroutine. Called exactly
// once, by the final token holder.
func (pl *Plane) finish() { close(pl.done) }

// killWorker tears down one process's goroutine, exactly once.
func (pl *Plane) killWorker(pid int) {
	if w := &pl.workers[pid]; !w.killed {
		w.killed = true
		pl.tr.SendGrant(pid, Grant{Kill: true})
	}
}

// shutdown releases every remaining worker and closes the transport (the
// plane-owned default transport is kept open for pooled reuse; nothing
// leaks, its channels are empty once every worker consumed its kill
// grant). All workers are parked between steps whenever shutdown runs, so
// the kill grants land without blocking.
func (pl *Plane) shutdown() {
	for pid := range pl.workers {
		pl.killWorker(pid)
	}
	if pl.hoster != nil {
		pl.hoster.FlushGrants()
	}
	pl.wg.Wait()
	if !pl.ownTr {
		pl.tr.Close()
	}
}

// grantRunnable arms the barrier and grants one step to every process the
// core has runnable, reporting whether any was. The batch shape — armed
// slots, sense value, pending counter — is fully published before the first
// grant goes out: the first worker to finish may arrive before later grants
// are even sent, and the barrier must already know how many frames the round
// owes.
//
// The next token tenure can begin the moment the final grant's worker
// arrives, and from then on this (former) holder may touch nothing the new
// holder writes. Every access to plane and core state in the send loop
// precedes that final SendGrant in program order, and the final send
// happens-before the next tenure through the granted worker's frame and the
// barrier's counter. In remote mode the hoster's FlushGrants is what puts
// the grants on the wire; the same argument holds with it as the final send,
// and it touches nothing but the transport.
func (pl *Plane) grantRunnable() bool {
	grants := pl.grants[:0]
	for pid := pl.rc.NextRunnable(-1); pid >= 0; pid = pl.rc.NextRunnable(pid) {
		pl.batch.slots[pid].armed = true
		grants = append(grants, pid)
	}
	pl.grants = grants
	if len(grants) == 0 {
		return false
	}
	now := pl.rc.Round()
	pl.batch.sense.Store(now)
	pl.batch.pending.Store(int64(len(grants)))
	hoster := pl.hoster
	for _, pid := range grants {
		pl.tr.SendGrant(pid, Grant{Round: now, Msgs: pl.rc.TakeMail(pid)})
	}
	if hoster != nil {
		hoster.FlushGrants()
	}
	return true
}

// commitBatch hands the completed batch to the core in ascending PID order
// — the engine's step order — so stateful adversaries, metrics and message
// buffers observe the identical sequence. On a fatal error the remaining
// yields are discarded uncounted, matching the engine, whose later processes
// never step at all.
func (pl *Plane) commitBatch() {
	for _, pid := range pl.grants {
		f := pl.batch.slots[pid]
		pl.batch.slots[pid] = yieldSlot{}
		switch {
		case pl.rc.Err() != nil:
			// run already failed: drop, uncounted
		case f.died:
			// The worker's host process vanished while holding this grant;
			// there is nothing left to tear down or checkpoint.
			pl.workers[pid].killed = true
			pl.rc.CrashGranted(pid)
		default:
			if pl.hoster != nil {
				// A remote proc's label and active flag arrive with its
				// frame; local procs set both from inside their steps.
				pl.workers[pid].label = f.label
				pl.rc.SetActive(pid, f.active)
			}
			if f.panicked {
				pl.rc.CommitPanic(pid, f.panicVal)
			} else {
				pl.rc.Commit(pid, &f.yield)
			}
		}
	}
}

// planeBody is the plane's sim.Body: how the core reaches a process body
// that lives on a worker goroutine, or behind a WorkerHoster in another OS
// process. The core calls it from the token holder only, while the process
// concerned is parked between steps.
type planeBody Plane

// Label implements sim.Body.
func (pb *planeBody) Label(pid int) string {
	w := &pb.workers[pid]
	if pb.hoster != nil {
		return w.label
	}
	return w.p.Label()
}

// Checkpoint implements sim.Body. The worker stays parked for a possible
// revival instead of being killed. A remote worker's recoverability is what
// the transport learned at handshake; one whose host process is gone is not
// recoverable.
func (pb *planeBody) Checkpoint(pid int) bool {
	w := &pb.workers[pid]
	if w.killed {
		return false
	}
	if pb.hoster != nil {
		if !pb.hoster.WorkerRecoverable(pid) {
			return false
		}
		pb.hoster.SnapshotWorker(pid)
		return true
	}
	w.p.DropMail()
	return w.p.SnapshotState()
}

// Restore implements sim.Body.
func (pb *planeBody) Restore(pid int) bool {
	if pb.hoster != nil {
		if !pb.hoster.WorkerRecoverable(pid) {
			return false
		}
		pb.hoster.RestoreWorker(pid)
		return true
	}
	return pb.workers[pid].p.RestoreState()
}

// Retire implements sim.Body.
func (pb *planeBody) Retire(pid int) { (*Plane)(pb).killWorker(pid) }
