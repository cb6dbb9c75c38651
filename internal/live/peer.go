package live

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// wirePeer is one endpoint of a sequenced wire link: the reliability layer
// both the serve transport and each join run over their connection. It turns
// a raw (possibly chaos-afflicted, possibly reconnecting) byte stream into
// exactly-once, in-order delivery of sequenced frames:
//
//   - Outbound: send assigns ascending Seq numbers and keeps every encoded
//     frame in the resend window, a Seq-indexed ring whose slots and buffers
//     are recycled as cumulative acks advance. The first transmission passes
//     through the chaos layer (drop/duplicate/hold); a retransmit ticker, and
//     every reconnect, replays the window verbatim and chaos-free.
//   - Acks ride: every sequenced frame carries the sender's cumulative
//     AckUpTo. A standalone ack is written only when nothing is there to
//     carry it — the connection's reader has drained its input, the
//     dispatcher is idle, no handler has promised a reply — or at once for a
//     duplicate or out-of-order frame, which says the other side is
//     resending. No timer decides when to ack.
//   - Inbound: frames below the expected Seq are duplicates (suppressed),
//     frames above it are parked, in-sequence frames and whatever parked ones
//     they lead to are queued for the dispatcher: a single goroutine that
//     calls deliver with no peer lock held, so delivery order is frame order
//     even where two connections' readers coexist across a reconnect.
//     deliver reports whether the owner will answer with a sequenced frame.
//
// Connection lifecycle is the owner's: attach installs a (re)connected conn
// and the frame reader its handshake used; a failed read or write detaches
// the conn and fires onDown once per attached conn.
type wirePeer struct {
	chaos   WireChaos
	rto     time.Duration
	deliver func(*wireFrame) (replyFollows bool)
	onDown  func(err error)

	mu      sync.Mutex
	cond    *sync.Cond // queue non-empty, resend window empty, or closed
	conn    net.Conn
	sendSeq uint64   // last Seq assigned
	acked   uint64   // (acked, sendSeq] is the resend window
	ring    [][]byte // its encoded frames, Seq s in slot s&(len-1); len a power of two
	held    []uint64 // Seqs of chaos-held first transmissions awaiting later traffic
	ackBuf  []byte   // the standalone ack frame's storage

	want      uint64 // next inbound Seq to accept
	ackSent   uint64 // highest AckUpTo written so far
	replyOwed bool   // a handler promised a sequenced reply that has not gone out yet
	busy      bool   // the dispatcher is inside deliver
	reading   bool   // the attached conn's reader holds input it has not handled yet
	fin       bool   // a frameFin was accepted: the session is over, EOF is success
	parked    map[uint64]*wireFrame
	queue     []*wireFrame // accepted frames awaiting the dispatcher, from qhead on
	qhead     int
	sent      [frameFin + 1]int // first transmissions and standalone acks written, by kind
	closed    bool
	done      chan struct{}
}

func newWirePeer(chaos WireChaos, rto time.Duration, deliver func(*wireFrame) bool, onDown func(error)) *wirePeer {
	if rto <= 0 {
		rto = defaultRTO
	}
	p := &wirePeer{chaos: chaos, rto: rto, deliver: deliver, onDown: onDown, want: 1,
		ring: make([][]byte, 8), parked: make(map[uint64]*wireFrame), done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	go p.dispatch()
	go p.retransmitLoop()
	return p
}

// attach installs a fresh connection (fr is the reader the handshake used,
// which may hold over-read bytes), replays the resend window, and starts the
// connection's read loop.
func (p *wirePeer) attach(conn net.Conn, fr *frameReader) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn, p.reading = conn, false
	p.replayLocked()
	p.mu.Unlock()
	go p.readLoop(conn, fr)
}

func (p *wirePeer) slot(seq uint64) *[]byte { return &p.ring[seq&uint64(len(p.ring)-1)] }

// send sequences one frame, head and body back to back as its kind-specific
// bytes, into the resend window and (chaos permitting) transmits it. The
// bytes are copied; the caller may reuse them at once. A closed peer sends
// nothing.
func (p *wirePeer) send(kind uint8, head, body []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if n := uint64(len(p.ring)); p.sendSeq-p.acked == n {
		ring := make([][]byte, 2*n)
		for s := p.acked + 1; s <= p.sendSeq; s++ {
			ring[s&(2*n-1)] = *p.slot(s)
		}
		p.ring = ring
	}
	p.sendSeq++
	seq := p.sendSeq
	b := beginWireFrame(*p.slot(seq), kind)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, p.want-1)
	b = endWireFrame(append(append(b, head...), body...))
	*p.slot(seq) = b
	p.ackSent, p.replyOwed = p.want-1, false
	p.sent[kind]++
	// While disconnected the writes below are no-ops: the next attach replays.
	switch p.chaos.decide(seq) {
	case chaosDrop:
		return // first transmission lost; the retransmit tick repairs
	case chaosHold:
		p.held = append(p.held, seq)
		return // sent after the next frame: reordered
	case chaosDup:
		p.writeLocked(b)
	}
	p.writeLocked(b)
	p.flushHeldLocked()
}

// ackLocked writes a standalone ack of everything accepted so far:
// unsequenced and chaos-free, since any later frame supersedes a lost one.
func (p *wirePeer) ackLocked() {
	if p.conn == nil {
		return
	}
	b := append(beginWireFrame(p.ackBuf, frameAck), 0) // Seq 0
	p.ackBuf = endWireFrame(binary.AppendUvarint(b, p.want-1))
	p.ackSent = p.want - 1
	p.sent[frameAck]++
	p.writeLocked(p.ackBuf)
	p.flushHeldLocked()
}

// idleAckLocked is where an in-sequence frame gets its standalone ack: the
// reader and the dispatcher both call it as they run out of work, and the
// last to do so finds nothing left that could have carried the ack.
func (p *wirePeer) idleAckLocked() {
	if p.want-1 > p.ackSent && !p.replyOwed && !p.busy && !p.reading && p.qhead == len(p.queue) {
		p.ackLocked()
	}
}

func (p *wirePeer) flushHeldLocked() {
	for _, seq := range p.held { // still in the window: only a replay, which empties held, gets them acked
		p.writeLocked(*p.slot(seq))
	}
	p.held = p.held[:0]
}

// replayLocked retransmits the resend window in Seq order, held first
// transmissions included.
func (p *wirePeer) replayLocked() {
	p.held = p.held[:0]
	for s := p.acked + 1; s <= p.sendSeq; s++ {
		p.writeLocked(*p.slot(s))
	}
}

// writeLocked writes to the attached connection, if there is one.
func (p *wirePeer) writeLocked(b []byte) {
	if conn := p.conn; conn != nil {
		if _, err := conn.Write(b); err != nil {
			p.downLocked(conn, err)
		}
	}
}

// downLocked detaches a failed connection, once, and notifies the owner.
func (p *wirePeer) downLocked(conn net.Conn, err error) {
	if p.conn != conn || p.closed {
		return
	}
	p.conn = nil
	conn.Close()
	if p.onDown != nil {
		go p.onDown(err) // without p.mu: the owner's handler takes its own locks
	}
}

func (p *wirePeer) readLoop(conn net.Conn, fr *frameReader) {
	for {
		f, err := fr.next()
		p.mu.Lock()
		if err != nil {
			p.downLocked(conn, err)
			p.mu.Unlock()
			return
		}
		p.handleLocked(f)
		if p.conn == conn {
			p.reading = fr.buffered()
			p.idleAckLocked()
		}
		p.mu.Unlock()
	}
}

// handleLocked files one inbound frame: its AckUpTo prunes the resend
// window; a sequenced frame is deduplicated, reordered, and queued for the
// dispatcher.
func (p *wirePeer) handleLocked(f *wireFrame) {
	if ack := min(f.AckUpTo, p.sendSeq); ack > p.acked {
		if p.acked = ack; ack == p.sendSeq {
			p.cond.Broadcast()
		}
	}
	switch {
	case f.Seq == 0: // a standalone ack: nothing to deliver
	case f.Seq < p.want:
		// Duplicate of an accepted frame (chaos dup, retransmit overlap, or
		// resend-after-reconnect): suppress, ack at once so the sender stops.
		p.ackLocked()
	case f.Seq > p.want:
		if _, dup := p.parked[f.Seq]; !dup {
			p.parked[f.Seq] = f
		}
		p.ackLocked() // tells the sender where the gap starts
	default:
		for ok := true; ok; f, ok = p.parked[p.want] {
			delete(p.parked, p.want)
			p.queue = append(p.queue, f)
			p.fin = p.fin || f.Kind == frameFin
			p.want++
		}
		p.cond.Broadcast()
	}
}

// dispatch is the peer's delivery goroutine. deliver runs with the lock
// released, so handlers may call back into send.
func (p *wirePeer) dispatch() {
	p.mu.Lock()
	for {
		for p.qhead == len(p.queue) {
			if p.closed { // closed and drained
				p.mu.Unlock()
				return
			}
			p.queue, p.qhead = p.queue[:0], 0
			p.cond.Wait()
		}
		f := p.queue[p.qhead]
		p.queue[p.qhead] = nil
		p.qhead++
		p.busy = true
		sentBefore := p.sendSeq
		p.mu.Unlock()
		replyFollows := p.deliver(f)
		p.mu.Lock()
		p.busy = false
		// A reply that already went out carried the ack with it.
		p.replyOwed = p.replyOwed || (replyFollows && p.sendSeq == sentBefore)
		p.idleAckLocked()
	}
}

// retransmitLoop replays the resend window every rto: the repair path for
// chaos drops and for frames whose ack was lost to a dying connection.
func (p *wirePeer) retransmitLoop() {
	t := time.NewTicker(p.rto)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			p.mu.Lock()
			p.replayLocked()
			p.mu.Unlock()
		}
	}
}

// waitDrained blocks until the resend window is empty or the peer closes;
// timeout caps the wait and is its only timer.
func (p *wirePeer) waitDrained(timeout time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	expired := false
	t := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		expired = true
		p.mu.Unlock()
		p.cond.Broadcast()
	})
	defer t.Stop()
	for p.acked < p.sendSeq && !p.closed && !expired {
		p.cond.Wait()
	}
}

// finished reports whether the other side closed the session with a fin.
func (p *wirePeer) finished() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fin
}

// close tears the peer down: the conn is closed, the dispatcher drains what
// was already in order and exits, the retransmit loop stops. Idempotent.
func (p *wirePeer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	close(p.done)
	p.cond.Broadcast()
}
