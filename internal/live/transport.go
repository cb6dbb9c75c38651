package live

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Grant is one coordinator→process frame: the messages delivered to the
// process this round plus permission to take one step. Round is the round
// being granted — the worker refuses a grant whose round disagrees with its
// process's clock, so a transport that reorders or replays frames is caught
// deterministically. Kill tears the process worker down instead (crash,
// halt or plane shutdown).
type Grant struct {
	Round int64
	Msgs  []sim.Message
	Kill  bool
}

// YieldFrame is one process→coordinator frame: everything the process
// produced for one granted round in a single hop — the yield the body
// returned (or the panic it raised), stamped with the round it answers.
// Round is the barrier's sense value: the RoundBatch accepts only frames
// carrying the round currently armed, so a transport that delays a frame
// past its round cannot corrupt a later barrier.
type YieldFrame struct {
	PID      int
	Round    int64
	Yield    sim.Yield
	PanicVal any
	Panicked bool

	// Label and Active relay the process's post-step state label and active
	// flag for transports whose workers live in other OS processes
	// (WorkerHoster): the plane cannot read them off a local sim.Proc, so
	// every yield carries them. The in-process transports leave both zero.
	Label  string
	Active bool
	// Died marks a synthesized frame for a granted worker whose host
	// process vanished (connection lost past the reconnect grace): the
	// plane books it as a crash in the granted round, with no event
	// committed — the same shape as an engine round-start crash.
	Died bool
}

// YieldSink is where a transport lands inbound yield frames: the plane's
// RoundBatch barrier. Arrive is safe to call from any goroutine and never
// blocks; the sink absorbs one frame per granted process per round.
type YieldSink interface {
	Arrive(f YieldFrame)
}

// Transport carries the barrier traffic of a live plane: grants outbound to
// the process workers, yields inbound to the coordinator's RoundBatch. The
// contract every implementation must provide:
//
//   - per-process FIFO order on grants, and a happens-before edge on every
//     transferred frame (the in-process implementation gets both from
//     channels and the barrier's atomics; a socket implementation gets them
//     from the connection);
//   - SendGrant never blocks, and SendYield never blocks the worker longer
//     than the transport's own delivery delay (the coordinator grants at
//     most one step per process per round, so capacity one per process
//     suffices);
//   - RecvGrant blocks until a grant (or Close) arrives, and a grant queued
//     before Close is delivered before ok=false; every SendYield frame is
//     eventually handed to the sink, exactly once.
//
// Delivery TIMING is entirely the transport's: frames may take arbitrarily
// long and arrive in any cross-process order. The sense-reversing barrier
// makes the run's Result independent of it, which is all the socket
// transport (WireTransport) relies on: it serializes Grant/YieldFrame and
// drains inbound frames into the sink from its connection readers —
// nothing about the coordinator changes.
type Transport interface {
	// Open sizes the transport for n processes and installs the sink that
	// receives every yield frame; called by Plane.Run before any frame
	// flows. A pooled plane may Open its own transport once per run, so
	// implementations should tolerate repeated Open calls with the same n.
	Open(n int, sink YieldSink)
	// SendGrant hands one grant to process pid (coordinator side).
	SendGrant(pid int, g Grant)
	// RecvGrant blocks for the next grant addressed to pid (worker side);
	// ok=false means the transport closed underneath the worker.
	RecvGrant(pid int) (g Grant, ok bool)
	// SendYield hands one yield frame toward the sink (worker side).
	SendYield(f YieldFrame)
	// Close tears the transport down after every worker has exited. Close
	// is idempotent, and SendGrant/SendYield on a closed transport are
	// defined no-ops — a worker yielding during plane teardown, or a late
	// restart firing after shutdown, must not panic the plane.
	Close()
}

// WorkerHoster is the optional Transport extension for transports whose
// workers live in other OS processes. A Transport implementing it switches
// Plane.Run into remote mode: the plane builds no local sim.Procs and spawns
// no worker goroutines — process labels and active flags arrive with each
// YieldFrame, crash checkpointing and revival are relayed as transport
// operations, and a worker whose host process vanishes surfaces as a frame
// with Died set, which the plane books as a crash in the granted round.
type WorkerHoster interface {
	Transport
	// WorkerRecoverable reports whether pid's stepper supports crash
	// checkpointing (sim.Recoverable) and its host process is still
	// reachable — the remote counterpart of Proc.SnapshotState's boolean.
	WorkerRecoverable(pid int) bool
	// SnapshotWorker checkpoints pid at crash time: the remote counterpart
	// of Proc.DropMail followed by Proc.SnapshotState. Only called after
	// WorkerRecoverable(pid) reported true.
	SnapshotWorker(pid int)
	// RestoreWorker revives pid from the checkpoint SnapshotWorker took:
	// the remote counterpart of Proc.RestoreState.
	RestoreWorker(pid int)
	// FlushGrants ends a fan-out of SendGrant calls — a round's step grants,
	// or the kills of a shutdown: a hoster may hold grants back until then
	// (the wire transport sends one frame per host process, not per PID).
	// Kills sent between fan-outs may wait for the next one.
	FlushGrants()
}

// Latency models per-frame delivery delay on the yield path: Base plus a
// uniformly random extra in [0, Jitter), drawn from a per-process generator
// seeded Seed+pid — reproducible wall-clock timing without any cross-worker
// lock. Delays perturb real arrival order at the barrier (that is their
// point: they exercise it) but never the Result.
type Latency struct {
	Base   time.Duration
	Jitter time.Duration
	Seed   int64
}

func (l Latency) delay(rng *rand.Rand) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(l.Jitter)))
	}
	return d
}

// ChanTransport is the in-process Transport: one capacity-1 grant channel
// per process, yields delivered straight into the plane's RoundBatch. It is
// the default transport of a Plane and survives reuse across pooled runs
// (Open with an unchanged n keeps the channels, unless Close ran).
//
// Each worker parks on its own grant channel and nothing else: no channel
// is shared between workers, so a round's grants never contend on one
// channel lock. Close closes every grant channel, which releases parked
// workers with ok=false once any queued grant is drained.
//
// SendYield calls the sink on the worker's own goroutine: the whole round's
// output lands in the RoundBatch in one hop, with no intermediate queue and
// no coordinator wakeup except for the round's last frame.
type ChanTransport struct {
	lat    Latency
	sink   YieldSink
	grants []chan Grant
	rngs   []*rand.Rand

	// mu orders every grant send against Close: a send on a channel racing
	// its close is a data race, so both run under mu. Only the token holder
	// or the plane's shutdown ever sends, so mu is uncontended. closed is
	// also read without mu by SendYield, to short-circuit a torn-down
	// transport.
	mu     sync.Mutex
	closed atomic.Bool

	// delayHook, when non-nil, observes every drawn delay before it is
	// slept (test instrumentation; see export_test.go).
	delayHook func(pid int, d time.Duration)
}

// NewChanTransport builds an in-process transport with the given latency
// model (zero Latency means immediate delivery).
func NewChanTransport(lat Latency) *ChanTransport {
	return &ChanTransport{lat: lat}
}

// Open implements Transport.
func (ct *ChanTransport) Open(n int, sink YieldSink) {
	ct.sink = sink
	if len(ct.grants) != n || ct.closed.Load() {
		ct.grants = make([]chan Grant, n)
		for i := range ct.grants {
			ct.grants[i] = make(chan Grant, 1)
		}
		ct.closed.Store(false)
	}
	if ct.lat.Base > 0 || ct.lat.Jitter > 0 {
		// Fresh generators every run: the delay stream is a per-run
		// deterministic function of (Seed, pid, draw index).
		ct.rngs = make([]*rand.Rand, n)
		for i := range ct.rngs {
			ct.rngs[i] = rand.New(rand.NewSource(ct.lat.Seed + int64(i)))
		}
	}
}

// SendGrant implements Transport. It never blocks: the barrier never has
// two grants outstanding for one process, so a full slot is a caller bug
// and the grant is dropped. Sending on a closed transport is a no-op.
func (ct *ChanTransport) SendGrant(pid int, g Grant) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.closed.Load() {
		return
	}
	select {
	case ct.grants[pid] <- g:
	default:
	}
}

// RecvGrant implements Transport.
func (ct *ChanTransport) RecvGrant(pid int) (Grant, bool) {
	g, ok := <-ct.grants[pid]
	return g, ok
}

// SendYield implements Transport. The latency model runs here, on the
// worker's own goroutine, so delays overlap across processes like real
// network transit instead of serializing at the coordinator.
func (ct *ChanTransport) SendYield(f YieldFrame) {
	if ct.rngs != nil {
		d := ct.lat.delay(ct.rngs[f.PID])
		if ct.delayHook != nil {
			ct.delayHook(f.PID, d)
		}
		if d > 0 {
			time.Sleep(d)
		}
	}
	if ct.closed.Load() {
		return // transport torn down underneath a yielding worker: no-op
	}
	// The frame goes straight to the sink; the RoundBatch drops frames for
	// rounds it is not collecting, so no recover guard is needed (and none
	// may wrap Arrive — it would swallow coordinator panics, not transport
	// ones).
	ct.sink.Arrive(f)
}

// Close implements Transport. It is idempotent and safe to call
// concurrently with sends, which become no-ops once it has run.
func (ct *ChanTransport) Close() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.closed.Load() {
		return
	}
	ct.closed.Store(true)
	for _, c := range ct.grants {
		close(c)
	}
}
