package live

import (
	"bufio"
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
}

// Join connects to a serve process, hosts the PID range it assigns, and
// blocks until the run is over (every worker killed by the coordinator) or
// the serve connection is lost beyond recovery. The returned error is nil
// for a clean run.
//
// Lifecycle: dial → hello/welcome (spec + session id) → build workers →
// ready (recoverability bits) → sequenced session. Workers step exactly as
// the in-process plane's workers do — receive a grant, deliver its messages,
// TryStep, apply the latency model, send the yield — with crash checkpoint /
// restore arriving as control frames while the worker is parked. If the
// connection drops, the join redials under the same session id within
// ReconnectGrace; the peers' resend buffers make the reconnect invisible to
// the run.
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
	conn, br, welcome, err := j.dialServe(false)
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
	j.peer.attach(conn, br)
	j.wg.Add(len(j.workers))
	for _, w := range j.workers {
		go j.runWorker(w)
	}
	return j.supervise()
}

// dialServe opens a connection and runs the raw handshake through the
// welcome frame. The returned reader carries any over-read bytes and must be
// handed to peer.attach.
func (j *joinRuntime) dialServe(rejoin bool) (net.Conn, *bufio.Reader, *wireFrame, error) {
	conn, err := net.DialTimeout(j.network, j.cfg.Addr, 5*time.Second)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("live: join dial %s %s: %w", j.network, j.cfg.Addr, err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeWireFrame(conn, &wireFrame{Kind: frameHello, Session: j.session, Rejoin: rejoin}); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("live: join hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	welcome, err := readWireFrame(br)
	if err != nil || welcome.Kind != frameWelcome {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("live: serve answered hello with frame kind %d", welcome.Kind)
		}
		return nil, nil, nil, fmt.Errorf("live: join handshake: %w", err)
	}
	return conn, br, welcome, nil
}

// deliver handles one in-order sequenced frame from the serve side, on the
// peer's dispatcher goroutine. Grants queue to the worker; crash/restart
// control frames touch the Proc directly — safe, because the coordinator
// only crashes or revives processes that are parked between steps.
func (j *joinRuntime) deliver(f *wireFrame) {
	i := f.PID - j.spec.Lo
	if i < 0 || i >= len(j.workers) {
		return
	}
	w := j.workers[i]
	switch f.Kind {
	case frameGrant:
		w.grants <- Grant{Round: f.Round, Msgs: f.Msgs, Kill: f.Kill}
	case frameCrash:
		// The crash path's remote half (Body.Checkpoint): deactivate, as the
		// serve-side core already has — so a revival does not resurrect the
		// crash-time active claim — then drop pre-crash mail and checkpoint.
		w.host.active = false
		w.proc.DropMail()
		w.proc.SnapshotState()
	case frameRestart:
		w.proc.RestoreState()
	}
}

// runWorker is the join-side worker goroutine: the in-process plane's worker
// loop with the transport hops replaced by the sequenced peer.
func (j *joinRuntime) runWorker(w *joinWorker) {
	defer j.wg.Done()
	for g := range w.grants {
		if g.Kill {
			w.proc.Release()
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
		f := &wireFrame{
			Kind: frameYield, PID: w.pid, Round: g.Round, Yield: y,
			Panicked: panicked, Label: w.proc.Label(), Active: w.host.active,
		}
		if panicked {
			f.PanicMsg = fmt.Sprint(pv)
		}
		if err := j.peer.send(f); err != nil && err != errPeerClosed {
			// The yield cannot cross the wire (an unregistered gob payload
			// type, most likely). Substitute a panicked frame so the serve
			// side fails the run loudly instead of hanging the barrier on a
			// yield that will never come.
			j.peer.send(&wireFrame{Kind: frameYield, PID: w.pid, Round: g.Round,
				Panicked: true, PanicMsg: fmt.Sprintf("live: yield frame for proc %d: %v", w.pid, err)})
		}
	}
}

// supervise waits for the run to end (all workers killed) while mending the
// connection whenever it drops. A serve that stays unreachable past
// ReconnectGrace ends the join with an error.
func (j *joinRuntime) supervise() error {
	workersDone := make(chan struct{})
	go func() {
		j.wg.Wait()
		close(workersDone)
	}()
	for {
		select {
		case <-workersDone:
			// Every worker consumed its kill grant, which means the serve
			// side already holds every yield; drain the final acks and go.
			j.peer.waitDrained(2 * time.Second)
			j.peer.close()
			j.logf("run complete, all %d workers released", len(j.workers))
			return nil
		case err := <-j.down:
			select {
			case <-workersDone:
				continue // lost the conn after the run ended: clean exit path
			default:
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
}

// rejoin redials under the same session id until it succeeds or the grace
// expires; on success the peer replays everything unacked.
func (j *joinRuntime) rejoin() error {
	deadline := time.Now().Add(j.grace)
	for {
		conn, br, _, err := j.dialServe(true)
		if err == nil {
			conn.SetDeadline(time.Time{})
			j.peer.attach(conn, br)
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
