package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/sim"
)

// JoinConfig configures one join process: the worker-hosting half of a wire
// cluster.
type JoinConfig struct {
	// Network is "tcp" or "unix" ("" = tcp); Addr the serve address.
	Network string
	Addr    string
	// Steppers resolves the run the serve side announced into this join's
	// process bodies; it is called once, with the welcome frame's spec
	// (Lo/Hi already set to this join's PID range).
	Steppers func(spec WireSpec) (func(id int) sim.Stepper, error)
	// Chaos afflicts this join's outbound frames (the yield direction).
	Chaos WireChaos
	// ReconnectGrace is how long to keep redialing a lost serve connection
	// before giving up; 0 means 3s. It should not exceed the serve side's
	// Grace, or the serve will declare this join dead first.
	ReconnectGrace time.Duration
	// RTO is the retransmit interval for unacked frames; 0 = default.
	RTO time.Duration
	// DelayHook observes latency draws (test instrumentation, the
	// counterpart of ChanTransport.SetDelayHook).
	DelayHook func(pid int, d time.Duration)
	// Logf, when non-nil, receives join lifecycle notes.
	Logf func(format string, args ...any)
}

// joinHost is the sim.Host a join gives each of its hosted procs (one host
// per proc): the run shape from the spec, the round from the last grant, and
// the proc's active flag, which crosses the wire with every yield frame —
// the serve-side round core keeps the cluster-wide count.
type joinHost struct {
	workers, units int
	now            int64
	active         bool
}

func (h *joinHost) NumProcs() int           { return h.workers }
func (h *joinHost) NumUnits() int           { return h.units }
func (h *joinHost) Round() int64            { return h.now }
func (h *joinHost) SetActive(_ int, v bool) { h.active = v }

// joinWorker is one hosted process: its Proc, its per-worker host clock, its
// latency rng, and the grant queue its goroutine consumes. Capacity 2 never
// blocks the dispatcher: the coordinator has at most one step grant in
// flight per process, plus possibly one kill.
type joinWorker struct {
	pid    int
	proc   *sim.Proc
	host   *joinHost
	rng    *rand.Rand
	grants chan Grant
}

type joinRuntime struct {
	cfg     JoinConfig
	network string
	grace   time.Duration
	spec    WireSpec
	session uint64
	peer    *wirePeer
	workers []*joinWorker // index pid - spec.Lo
	wg      sync.WaitGroup
	down    chan error

	// The yield frame answering the grant frame in flight: the coordinator
	// grants a join's workers one round at a time, so there is at most one.
	mu      sync.Mutex
	granted int    // workers the grant frame stepped
	owed    int    // those yet to yield; the one that takes it to 0 sends
	stage   []byte // the yields so far, encoded
}

// Join connects to a serve process, hosts the PID range it assigns, and
// blocks until the run is over (every worker killed by the coordinator) or
// the serve connection is lost beyond recovery. The returned error is nil
// for a clean run.
//
// Lifecycle: dial → hello/welcome (format version, spec + session id) →
// build workers → ready (recoverability bits) → sequenced session → fin.
// Workers step exactly as the in-process plane's workers do — receive a
// grant, deliver its messages, TryStep, apply the latency model, yield —
// with a round's yields leaving as one frame once the last granted worker
// has yielded, and crash checkpoint / restore arriving as control frames
// while the worker is parked. If the connection drops before the serve's
// fin, the join redials under the same session id within ReconnectGrace;
// the peers' resend windows make the reconnect invisible to the run. After
// the fin the connection closing is simply the end.
func Join(cfg JoinConfig) error {
	if cfg.Steppers == nil {
		return errors.New("live: JoinConfig.Steppers is required")
	}
	if err := cfg.Chaos.validate(); err != nil {
		return err
	}
	j := &joinRuntime{
		cfg:     cfg,
		network: cfg.Network,
		grace:   cfg.ReconnectGrace,
		down:    make(chan error, 1),
	}
	if j.network == "" {
		j.network = "tcp"
	}
	if j.grace <= 0 {
		j.grace = 3 * time.Second
	}
	conn, fr, welcome, err := j.dialServe(false)
	if err != nil {
		return err
	}
	spec := welcome.Spec
	if spec.Workers <= 0 || spec.Lo < 0 || spec.Lo >= spec.Hi || spec.Hi > spec.Workers {
		conn.Close()
		return fmt.Errorf("live: serve assigned invalid PID range [%d,%d) of %d workers", spec.Lo, spec.Hi, spec.Workers)
	}
	j.spec = spec
	j.session = welcome.Session
	steppers, err := cfg.Steppers(spec)
	if err != nil {
		conn.Close()
		return err
	}
	useLat := spec.Latency.Base > 0 || spec.Latency.Jitter > 0
	recov := make([]bool, spec.Hi-spec.Lo)
	j.workers = make([]*joinWorker, spec.Hi-spec.Lo)
	for i := range j.workers {
		pid := spec.Lo + i
		st := steppers(pid)
		h := &joinHost{workers: spec.Workers, units: spec.Units}
		w := &joinWorker{pid: pid, host: h, proc: sim.NewHostedProc(h, pid, st), grants: make(chan Grant, 2)}
		if _, ok := st.(sim.Recoverable); ok {
			recov[i] = true
		}
		if useLat {
			// Same per-PID stream as ChanTransport: seeded Seed+pid, one
			// draw per yield — cross-transport latency coherence.
			w.rng = rand.New(rand.NewSource(spec.Latency.Seed + int64(pid)))
		}
		j.workers[i] = w
	}
	if err := writeWireFrame(conn, &wireFrame{Kind: frameReady, Session: j.session, Recoverable: recov}); err != nil {
		conn.Close()
		return fmt.Errorf("live: join ready handshake: %w", err)
	}
	conn.SetDeadline(time.Time{})
	j.logf("joined as session %d, hosting PIDs [%d,%d) of %d", j.session, spec.Lo, spec.Hi, spec.Workers)
	j.peer = newWirePeer(cfg.Chaos, cfg.RTO, j.deliver, j.onDown)
	j.peer.attach(conn, fr)
	j.wg.Add(len(j.workers))
	for _, w := range j.workers {
		go j.runWorker(w)
	}
	return j.supervise()
}

// dialServe opens a connection and runs the raw handshake through the
// welcome frame. The returned frame reader may hold over-read bytes and must
// be handed to peer.attach.
func (j *joinRuntime) dialServe(rejoin bool) (net.Conn, *frameReader, *wireFrame, error) {
	conn, err := net.DialTimeout(j.network, j.cfg.Addr, 5*time.Second)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("live: join dial %s %s: %w", j.network, j.cfg.Addr, err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeWireFrame(conn, &wireFrame{Kind: frameHello, Version: wireVersion, Session: j.session, Rejoin: rejoin}); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("live: join hello: %w", err)
	}
	fr := newFrameReader(conn)
	welcome, err := fr.next()
	switch {
	case err != nil:
	case welcome.Kind != frameWelcome:
		err = fmt.Errorf("live: serve answered hello with frame kind %d", welcome.Kind)
	case welcome.Version != wireVersion:
		err = errWireVersion("the serve", welcome.Version)
	}
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("live: join handshake: %w", err)
	}
	return conn, fr, welcome, nil
}

// deliver handles one in-order sequenced frame from the serve side, on the
// peer's dispatcher goroutine. Grants queue to the workers; crash/restart
// control frames touch the Proc directly — safe, because the coordinator
// only crashes or revives processes that are parked between steps. A grant
// frame with step grants in it is answered by exactly one yield frame, which
// is what lets the peer hold its ack back for it.
func (j *joinRuntime) deliver(f *wireFrame) (replyFollows bool) {
	switch f.Kind {
	case frameGrant:
		steps := 0
		for i := range f.Grants {
			if g := &f.Grants[i]; !g.Kill && j.worker(g.PID) != nil {
				steps++
			}
		}
		if steps > 0 {
			// Published before the first grant is: its worker may yield at once.
			j.mu.Lock()
			j.granted, j.owed, j.stage = steps, steps, j.stage[:0]
			j.mu.Unlock()
		}
		for i := range f.Grants {
			if w := j.worker(f.Grants[i].PID); w != nil {
				w.grants <- f.Grants[i].Grant
			}
		}
		return steps > 0
	case frameCrash, frameRestart:
		w := j.worker(f.PID)
		if w == nil {
			break
		}
		if f.Kind == frameRestart {
			w.proc.RestoreState()
			break
		}
		// The crash path's remote half (Body.Checkpoint): deactivate, as the
		// serve-side core already has — so a revival does not resurrect the
		// crash-time active claim — then drop pre-crash mail and checkpoint.
		w.host.active = false
		w.proc.DropMail()
		w.proc.SnapshotState()
	}
	return false
}

func (j *joinRuntime) worker(pid int) *joinWorker {
	if i := pid - j.spec.Lo; i >= 0 && i < len(j.workers) {
		return j.workers[i]
	}
	return nil
}

// runWorker is the join-side worker goroutine: the in-process plane's worker
// loop with the transport hops replaced by the sequenced peer.
func (j *joinRuntime) runWorker(w *joinWorker) {
	defer j.wg.Done()
	for g := range w.grants {
		if g.Kill {
			return
		}
		w.host.now = g.Round
		for _, m := range g.Msgs {
			w.proc.Deliver(m)
		}
		y, pv, panicked := w.proc.TryStep()
		if w.rng != nil {
			d := j.spec.Latency.delay(w.rng)
			if j.cfg.DelayHook != nil {
				j.cfg.DelayHook(w.pid, d)
			}
			if d > 0 {
				time.Sleep(d)
			}
		}
		j.yield(YieldFrame{
			PID: w.pid, Round: g.Round, Yield: y, PanicVal: pv, Panicked: panicked,
			Label: w.proc.Label(), Active: w.host.active,
		})
	}
}

// yield adds one worker's yield to the round's frame and, if it is the last
// one owed, sends the frame.
func (j *joinRuntime) yield(f YieldFrame) {
	j.mu.Lock()
	defer j.mu.Unlock()
	stage, err := appendWireYield(j.stage, &f)
	if err != nil {
		// The yield cannot cross the wire (a payload type outside the wire
		// table, most likely). Substitute a panicked one so the serve side
		// fails the run loudly instead of hanging the barrier on a yield that
		// will never come.
		stage, _ = appendWireYield(j.stage, &YieldFrame{PID: f.PID, Round: f.Round, Panicked: true,
			PanicVal: fmt.Sprintf("live: yield frame for proc %d: %v", f.PID, err)})
	}
	j.stage = stage
	if j.owed--; j.owed == 0 {
		var count [binary.MaxVarintLen64]byte
		j.peer.send(frameYield, binary.AppendUvarint(count[:0], uint64(j.granted)), j.stage)
	}
}

// supervise mends the connection whenever it drops, until the drop that
// follows the serve's fin: that one is the run ending. By then every kill
// grant is in the dispatcher's hands (the fin is sequenced behind them), so
// the workers are on their way out. A serve that stays unreachable past
// ReconnectGrace with no fin seen ends the join with an error.
func (j *joinRuntime) supervise() error {
	for {
		err := <-j.down
		if j.peer.finished() {
			j.killWorkers() // none left to kill after a full run; waits for them
			j.peer.close()
			j.logf("run complete, all %d workers released", len(j.workers))
			return nil
		}
		j.logf("serve connection lost (%v), redialing", err)
		if rejoinErr := j.rejoin(); rejoinErr != nil {
			j.killWorkers()
			j.peer.close()
			return fmt.Errorf("live: join lost serve connection: %v (reconnect: %v)", err, rejoinErr)
		}
		j.logf("rejoined as session %d", j.session)
	}
}

// rejoin redials under the same session id until it succeeds or the grace
// expires; on success the peer replays everything unacked.
func (j *joinRuntime) rejoin() error {
	deadline := time.Now().Add(j.grace)
	for {
		conn, fr, _, err := j.dialServe(true)
		if err == nil {
			conn.SetDeadline(time.Time{})
			j.peer.attach(conn, fr)
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// killWorkers tears down the hosted procs after an unrecoverable connection
// loss.
func (j *joinRuntime) killWorkers() {
	for _, w := range j.workers {
		select {
		case w.grants <- Grant{Kill: true}:
		default: // queue full: a kill is already pending
		}
	}
	j.wg.Wait()
}

func (j *joinRuntime) onDown(err error) {
	select {
	case j.down <- err:
	default:
	}
}

func (j *joinRuntime) logf(format string, args ...any) {
	if j.cfg.Logf != nil {
		j.cfg.Logf(format, args...)
	}
}
