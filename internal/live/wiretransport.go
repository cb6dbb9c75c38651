package live

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// WireOptions configures the serve side of a wire cluster.
type WireOptions struct {
	// Network is "tcp" or "unix" ("" = tcp); Addr the listen address
	// (host:port, or a socket path for unix).
	Network string
	Addr    string
	// Joins is how many join processes the cluster expects; the worker PID
	// space [0, Spec.Workers) is split into Joins contiguous ranges,
	// assigned in connection order (an even split, remainder to the
	// earliest joins).
	Joins int
	// Spec is the run announced to every join (Lo/Hi are filled per
	// session). Spec.Workers must equal the plane's NumProcs.
	Spec WireSpec
	// Chaos afflicts the serve side's outbound frames; joins configure
	// their own direction themselves.
	Chaos WireChaos
	// Grace is how long a disconnected join may reconnect before its
	// workers are declared dead (crashed); 0 means 3s.
	Grace time.Duration
	// ReadyTimeout bounds WaitReady; 0 means 60s.
	ReadyTimeout time.Duration
	// RTO is the retransmit interval for unacked frames; 0 means the
	// package default.
	RTO time.Duration
}

// WireTransport is the serve side of the wire protocol: a Transport (and
// WorkerHoster) whose workers live in join processes. It listens, assigns
// each fresh join a contiguous PID range, and relays the plane's grants and
// the joins' yields over sequenced peers — so the unchanged Plane runs the
// cluster exactly as it runs in-process goroutines. A join that vanishes
// past the reconnect grace surfaces as Died frames for its PIDs, which the
// plane books as crashes: SIGKILL of a join process is a real fault with the
// certificate semantics explore's crash schedules describe.
type WireTransport struct {
	opts WireOptions
	ln   net.Listener

	mu       sync.Mutex
	sink     YieldSink
	sessions []*wireSession
	assigned int // sessions handed to fresh joins so far
	ready    int // sessions whose join completed the ready handshake
	readyCh  chan struct{}
	refused  chan error // a handshake the serve had to refuse (buffer 1: the first is reported)
	closed   bool
	pidSess  []*wireSession
	pending  []pendingGrant // per PID: the armed grant a yield has not answered
	dead     []bool

	// stageMu guards the grant fan-out in progress: staged (the sessions
	// with anything in their staging fields) and those fields themselves.
	// Lock order: stageMu, then mu, then a peer's.
	stageMu sync.Mutex
	staged  []*wireSession
}

// pendingGrant records one in-flight step grant so a session death knows
// which round its Died frames must answer.
type pendingGrant struct {
	round int64
	armed bool
}

// wireSession is one join's slot: its PID range, recoverability bits, and
// the sequenced peer carrying its traffic across reconnects.
type wireSession struct {
	wt     *WireTransport
	id     uint64
	lo, hi int
	recov  []bool
	peer   *wirePeer
	grace  *time.Timer
	joined bool // a join completed the ready handshake for this slot
	dead   bool

	// The grant frame being assembled for this join (under wt.stageMu): its
	// encoded entries, how many, and what the step grants handed to SendGrant
	// are owed — PID and Round for one in the frame, a finished Panicked
	// answer for one that could not be encoded.
	stage   []byte
	entries int
	owed    []YieldFrame
}

var _ WorkerHoster = (*WireTransport)(nil)

// NewWireTransport validates the options, binds the listener and starts
// accepting joins. The plane may Run immediately — grants to workers whose
// join has not yet completed its handshake simply queue in the session peer
// — but WaitReady is the polite way to sequence output.
func NewWireTransport(opts WireOptions) (*WireTransport, error) {
	if opts.Network == "" {
		opts.Network = "tcp"
	}
	if opts.Network != "tcp" && opts.Network != "unix" {
		return nil, fmt.Errorf("live: wire network must be tcp or unix, not %q", opts.Network)
	}
	if opts.Joins < 1 {
		return nil, fmt.Errorf("live: wire cluster needs at least 1 join, not %d", opts.Joins)
	}
	if opts.Spec.Workers < opts.Joins {
		return nil, fmt.Errorf("live: %d joins cannot split %d workers", opts.Joins, opts.Spec.Workers)
	}
	if err := opts.Chaos.validate(); err != nil {
		return nil, err
	}
	if opts.Grace <= 0 {
		opts.Grace = 3 * time.Second
	}
	if opts.ReadyTimeout <= 0 {
		opts.ReadyTimeout = 60 * time.Second
	}
	if opts.Network == "unix" {
		os.Remove(opts.Addr) // a stale socket file from a dead serve
	}
	ln, err := net.Listen(opts.Network, opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("live: wire listen: %w", err)
	}
	w := opts.Spec.Workers
	wt := &WireTransport{
		opts:    opts,
		ln:      ln,
		readyCh: make(chan struct{}),
		refused: make(chan error, 1),
		pidSess: make([]*wireSession, w),
		pending: make([]pendingGrant, w),
		dead:    make([]bool, w),
	}
	lo := 0
	for i := 0; i < opts.Joins; i++ {
		size := w / opts.Joins
		if i < w%opts.Joins {
			size++
		}
		s := &wireSession{wt: wt, id: uint64(i + 1), lo: lo, hi: lo + size, recov: make([]bool, size)}
		s.peer = newWirePeer(opts.Chaos, opts.RTO, s.deliver, s.down)
		wt.sessions = append(wt.sessions, s)
		for pid := lo; pid < s.hi; pid++ {
			wt.pidSess[pid] = s
		}
		lo = s.hi
	}
	go wt.acceptLoop()
	return wt, nil
}

// Addr returns the bound listen address (useful with ":0").
func (wt *WireTransport) Addr() string { return wt.ln.Addr().String() }

// WaitReady blocks until every join has connected and completed its
// handshake, or the configured timeout passes.
func (wt *WireTransport) WaitReady() error {
	select {
	case <-wt.readyCh:
		return nil
	case err := <-wt.refused:
		return err
	case <-time.After(wt.opts.ReadyTimeout):
		wt.mu.Lock()
		ready := wt.ready
		wt.mu.Unlock()
		return fmt.Errorf("live: wire cluster: %d of %d joins ready after %v",
			ready, wt.opts.Joins, wt.opts.ReadyTimeout)
	}
}

func (wt *WireTransport) acceptLoop() {
	for {
		conn, err := wt.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go wt.handshake(conn)
	}
}

// handshake runs the raw (unsequenced) connection setup: hello in, welcome
// out, and — for fresh joins — the ready frame in. The connection then
// attaches to the session's peer, which replays anything unacked (the
// resend half of the reconnect contract). The handshake's frame reader is
// handed to the peer so over-read bytes survive.
func (wt *WireTransport) handshake(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn)
	hello, err := fr.next()
	if err != nil || hello.Kind != frameHello {
		conn.Close()
		return
	}
	if hello.Version != wireVersion {
		// Answer in kind, so the join can name both versions too, and refuse.
		writeWireFrame(conn, &wireFrame{Kind: frameWelcome, Version: wireVersion})
		conn.Close()
		select {
		case wt.refused <- errWireVersion("a join", hello.Version):
		default:
		}
		return
	}
	if hello.Rejoin {
		wt.mu.Lock()
		var s *wireSession
		if i := int(hello.Session) - 1; i >= 0 && i < len(wt.sessions) {
			s = wt.sessions[i]
		}
		if s == nil || s.dead || wt.closed {
			wt.mu.Unlock()
			conn.Close() // unknown session, or its grace already expired
			return
		}
		if s.grace != nil {
			s.grace.Stop()
			s.grace = nil
		}
		wt.mu.Unlock()
		if writeWireFrame(conn, &wireFrame{Kind: frameWelcome, Version: wireVersion, Session: s.id}) != nil {
			conn.Close()
			return
		}
		conn.SetDeadline(time.Time{})
		s.peer.attach(conn, fr)
		return
	}
	wt.mu.Lock()
	if wt.closed || wt.assigned >= len(wt.sessions) {
		wt.mu.Unlock()
		conn.Close() // cluster full (or shutting down)
		return
	}
	s := wt.sessions[wt.assigned]
	wt.assigned++
	wt.mu.Unlock()
	spec := wt.opts.Spec
	spec.Lo, spec.Hi = s.lo, s.hi
	if writeWireFrame(conn, &wireFrame{Kind: frameWelcome, Version: wireVersion, Session: s.id, Spec: spec}) != nil {
		conn.Close()
		return
	}
	ready, err := fr.next()
	if err != nil || ready.Kind != frameReady || len(ready.Recoverable) != s.hi-s.lo {
		conn.Close()
		return
	}
	wt.mu.Lock()
	copy(s.recov, ready.Recoverable)
	s.joined = true
	wt.ready++
	if wt.ready == len(wt.sessions) {
		close(wt.readyCh)
	}
	wt.mu.Unlock()
	conn.SetDeadline(time.Time{})
	s.peer.attach(conn, fr)
}

// deliver handles one in-order sequenced frame from a join: only yield
// frames are expected inbound. The serve side never promises a reply — the
// arrival that completes the barrier has sent the next round's grants (and
// the ack with them) by the time Arrive returns.
func (s *wireSession) deliver(f *wireFrame) bool {
	if f.Kind != frameYield {
		return false
	}
	wt := s.wt
	wt.mu.Lock()
	live := f.Yields[:0]
	for _, y := range f.Yields {
		if y.PID < s.lo || y.PID >= s.hi || wt.closed || wt.dead[y.PID] {
			// Out-of-range, shut down, or a yield that raced the session's death:
			// once expire has synthesized Died frames for the range, late yields
			// from the vanished join's dispatcher must not resurrect the pid.
			continue
		}
		wt.pending[y.PID] = pendingGrant{}
		live = append(live, y)
	}
	sink := wt.sink
	wt.mu.Unlock()
	if sink != nil {
		for _, y := range live {
			sink.Arrive(y)
		}
	}
	return false
}

// down fires when the session's connection fails: the join has Grace to
// reconnect before its workers are declared dead.
func (s *wireSession) down(error) {
	wt := s.wt
	wt.mu.Lock()
	if s.dead || wt.closed || s.grace != nil {
		wt.mu.Unlock()
		return
	}
	s.grace = time.AfterFunc(wt.opts.Grace, func() { wt.expire(s) })
	wt.mu.Unlock()
}

// expire declares a vanished join's workers dead: every armed grant in its
// range is answered with a synthesized Died frame (a crash in the granted
// round), and future grants to the range answer the same way. The barrier
// never stalls on a killed process.
func (wt *WireTransport) expire(s *wireSession) {
	wt.mu.Lock()
	if s.dead || wt.closed {
		wt.mu.Unlock()
		return
	}
	s.dead = true
	type death struct {
		pid   int
		round int64
	}
	var died []death
	for pid := s.lo; pid < s.hi; pid++ {
		wt.dead[pid] = true
		if pg := wt.pending[pid]; pg.armed {
			wt.pending[pid] = pendingGrant{}
			died = append(died, death{pid, pg.round})
		}
	}
	sink := wt.sink
	wt.mu.Unlock()
	s.peer.close()
	if sink == nil {
		return
	}
	for _, d := range died {
		sink.Arrive(YieldFrame{PID: d.pid, Round: d.round, Died: true})
	}
}

// Open implements Transport. n must match the Workers the transport was
// built for — the spec already went out to joins, so a mismatch is a
// programming error, not a runtime condition.
func (wt *WireTransport) Open(n int, sink YieldSink) {
	if n != len(wt.pidSess) {
		panic(fmt.Sprintf("live: WireTransport built for %d workers, plane opened with %d", len(wt.pidSess), n))
	}
	wt.mu.Lock()
	wt.sink = sink
	wt.mu.Unlock()
}

// SendGrant implements Transport: the grant is encoded into the frame being
// assembled for the join that hosts pid, and crosses the wire when
// FlushGrants ends the fan-out. A grant that cannot be encoded (a message
// payload outside the wire table, most likely) is left out of the frame and
// answered with a panicked yield, so the run fails loudly instead of hanging
// the barrier.
func (wt *WireTransport) SendGrant(pid int, g Grant) {
	if pid < 0 || pid >= len(wt.pidSess) {
		return
	}
	wt.stageMu.Lock()
	defer wt.stageMu.Unlock()
	s := wt.pidSess[pid]
	if s.entries == 0 && len(s.owed) == 0 {
		wt.staged = append(wt.staged, s)
	}
	owed := YieldFrame{PID: pid, Round: g.Round}
	if stage, err := appendWireGrant(s.stage, pid, g); err == nil {
		s.stage = stage
		s.entries++
	} else {
		owed.Panicked, owed.PanicVal = true, fmt.Sprintf("live: grant frame for proc %d: %v", pid, err)
	}
	if !g.Kill {
		s.owed = append(s.owed, owed)
	}
}

// FlushGrants implements WorkerHoster: one grant frame per join with
// anything staged. Step grants are armed in the pending book here, under the
// lock expire takes, so a join that dies mid-fan-out has each of its PIDs
// answered exactly once: by expire if armed, by a Died frame from here if
// the session was already dead. Those answers, like the ones for
// unencodable grants, are asynchronous — Arrive may complete the batch and
// run the whole coordinator turn, which must not reenter the granting token
// holder's stack. stageMu is held throughout: the next token holder, whose
// tenure can begin the moment the last frame is written, waits at its first
// SendGrant until this fan-out has let go of the staging state.
func (wt *WireTransport) FlushGrants() {
	wt.stageMu.Lock()
	defer wt.stageMu.Unlock()
	var answers []YieldFrame
	wt.mu.Lock()
	sink := wt.sink
	for _, s := range wt.staged {
		for _, y := range s.owed {
			switch {
			case y.Panicked:
				answers = append(answers, y)
			case s.dead:
				y.Died = true
				answers = append(answers, y)
			default:
				wt.pending[y.PID] = pendingGrant{round: y.Round, armed: true}
			}
		}
		s.owed = s.owed[:0]
	}
	wt.mu.Unlock()
	for _, s := range wt.staged {
		if s.entries > 0 { // to a dead session too: its peer is closed, or its yields will be dropped
			var count [binary.MaxVarintLen64]byte
			s.peer.send(frameGrant, binary.AppendUvarint(count[:0], uint64(s.entries)), s.stage)
		}
		s.stage, s.entries = s.stage[:0], 0
	}
	wt.staged = wt.staged[:0]
	if len(answers) > 0 && sink != nil {
		go func() {
			for _, f := range answers {
				sink.Arrive(f)
			}
		}()
	}
}

// RecvGrant implements Transport. The plane never spawns local workers on a
// WorkerHoster transport, so nothing should ever call it.
func (wt *WireTransport) RecvGrant(int) (Grant, bool) { return Grant{}, false }

// SendYield implements Transport; serve-side workers do not exist, so this
// is never called.
func (wt *WireTransport) SendYield(YieldFrame) {}

// Close implements Transport. Teardown is by protocol: each live session is
// sent a sequenced fin behind the kill grants the plane's shutdown just
// flushed, and Close waits — on the peer's window-empty condition, capped at
// 2s — until the join has acked it. By then the join holds every frame of
// the run and knows the EOF that follows is the end, not a loss; only then
// do the listener and the peers close. Idempotent.
func (wt *WireTransport) Close() {
	wt.mu.Lock()
	if wt.closed {
		wt.mu.Unlock()
		return
	}
	live := make([]*wireSession, 0, len(wt.sessions))
	for _, s := range wt.sessions {
		if s.joined && !s.dead {
			live = append(live, s)
		}
	}
	wt.mu.Unlock()
	for _, s := range live {
		s.peer.send(frameFin, nil, nil)
	}
	for _, s := range live {
		s.peer.waitDrained(2 * time.Second)
	}
	wt.mu.Lock()
	if wt.closed {
		wt.mu.Unlock()
		return
	}
	wt.closed = true
	for _, s := range wt.sessions {
		if s.grace != nil {
			s.grace.Stop()
			s.grace = nil
		}
	}
	wt.mu.Unlock()
	wt.ln.Close()
	for _, s := range wt.sessions {
		s.peer.close()
	}
	if wt.opts.Network == "unix" {
		os.Remove(wt.opts.Addr)
	}
}

// WorkerRecoverable implements WorkerHoster: the bit the join reported at
// handshake, and the join must still be reachable.
func (wt *WireTransport) WorkerRecoverable(pid int) bool {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	if wt.closed || pid < 0 || pid >= len(wt.pidSess) || wt.dead[pid] {
		return false
	}
	s := wt.pidSess[pid]
	return s.recov[pid-s.lo]
}

// SnapshotWorker implements WorkerHoster: relays the crash-time checkpoint
// (drop mail + snapshot) to the join hosting pid.
func (wt *WireTransport) SnapshotWorker(pid int) {
	wt.sendControl(pid, frameCrash)
}

// RestoreWorker implements WorkerHoster: relays the revival to the join
// hosting pid.
func (wt *WireTransport) RestoreWorker(pid int) {
	wt.sendControl(pid, frameRestart)
}

func (wt *WireTransport) sendControl(pid int, kind uint8) {
	wt.mu.Lock()
	if wt.closed || pid < 0 || pid >= len(wt.pidSess) || wt.dead[pid] {
		wt.mu.Unlock()
		return
	}
	s := wt.pidSess[pid]
	wt.mu.Unlock()
	var b [binary.MaxVarintLen64]byte
	s.peer.send(kind, binary.AppendVarint(b[:0], int64(pid)), nil)
}

// ParseWireAddr splits a user-facing cluster address into (network, addr):
// "unix:/path/to.sock" selects a unix socket, anything else is tcp. The
// serve and join subcommands share it so their -listen/-connect flags
// cannot drift apart.
func ParseWireAddr(s string) (network, addr string) {
	if rest, ok := strings.CutPrefix(s, "unix:"); ok {
		return "unix", rest
	}
	return "tcp", s
}
