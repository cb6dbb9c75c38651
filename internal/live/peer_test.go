package live

import (
	"net"
	"testing"
	"time"

	"repro/internal/sim"
)

// sinkConn is a net.Conn that reports each written frame on a channel (when
// it has one) and never has anything to read.
type sinkConn struct {
	net.Conn // nil: the methods below are the only ones a peer calls
	writes   chan *wireFrame
	closed   chan struct{}
}

func newSinkConn(record bool) *sinkConn {
	c := &sinkConn{closed: make(chan struct{})}
	if record {
		c.writes = make(chan *wireFrame, 16) // more than any one step of the test writes
	}
	return c
}

func (c *sinkConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *sinkConn) Write(b []byte) (int, error) {
	if c.writes != nil {
		f, err := decodeWireFrame(new(sim.WireReader), b[4:])
		if err != nil {
			return 0, err
		}
		c.writes <- f
	}
	return len(b), nil
}

func (c *sinkConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *sinkConn) next(t *testing.T) *wireFrame {
	t.Helper()
	select {
	case f := <-c.writes:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("peer wrote nothing")
		return nil
	}
}

// inject hands the peer one inbound frame as its read loop would, with the
// connection's input drained behind it.
func inject(p *wirePeer, f *wireFrame) {
	p.mu.Lock()
	p.handleLocked(f)
	p.reading = false
	p.idleAckLocked()
	p.mu.Unlock()
}

// TestWirePeerAcksRide pins the ack discipline: a frame whose handler
// promises a reply is acked by that reply and by nothing else; a frame with
// no reply coming gets exactly one standalone ack, once the dispatcher has
// gone idle; a duplicate is acked at once. And the steady state — send a
// frame, have it acked — allocates nothing: the resend window recycles its
// slots, an ack costs neither a frame nor a buffer.
func TestWirePeerAcksRide(t *testing.T) {
	delivered := make(chan uint64, 4)
	conn := newSinkConn(true)
	p := newWirePeer(WireChaos{}, time.Hour, func(f *wireFrame) bool {
		delivered <- f.Seq
		return f.Kind == frameGrant // as a join does: grants are answered, controls are not
	}, nil)
	defer p.close()
	p.attach(conn, newFrameReader(conn))

	inject(p, &wireFrame{Kind: frameGrant, Seq: 1})
	<-delivered
	p.send(frameYield, []byte{0}, nil)
	if f := conn.next(t); f.Kind != frameYield || f.Seq != 1 || f.AckUpTo != 1 {
		t.Fatalf("first frame written after a promised reply: %+v, want the yield frame carrying ack 1", f)
	}

	inject(p, &wireFrame{Kind: frameCrash, Seq: 2, AckUpTo: 1})
	<-delivered
	if f := conn.next(t); f.Kind != frameAck || f.AckUpTo != 2 {
		t.Fatalf("after an unanswered frame: %+v, want a standalone ack of 2", f)
	}
	inject(p, &wireFrame{Kind: frameCrash, Seq: 2, AckUpTo: 1})
	if f := conn.next(t); f.Kind != frameAck || f.AckUpTo != 2 {
		t.Fatalf("after a duplicate: %+v, want the ack of 2 again", f)
	}
	p.mu.Lock()
	sent, window := p.sent, p.sendSeq-p.acked
	p.mu.Unlock()
	if sent[frameAck] != 2 || sent[frameYield] != 1 || window != 0 {
		t.Errorf("sent %d acks and %d yield frames with %d unacked, want 2, 1 and 0", sent[frameAck], sent[frameYield], window)
	}

	quiet := newSinkConn(false)
	p.attach(quiet, newFrameReader(quiet))
	body := make([]byte, 64)
	ack := &wireFrame{Kind: frameAck}
	if n := testing.AllocsPerRun(200, func() {
		p.send(frameYield, body[:1], body)
		p.mu.Lock()
		ack.AckUpTo = p.sendSeq
		p.handleLocked(ack)
		p.mu.Unlock()
	}); n != 0 {
		t.Errorf("send + ack in the steady state: %.0f allocs/op, want 0", n)
	}
}

// TestWirePeerWaitDrained pins the drain wait: it returns when the window
// empties, not a poll interval later, and its cap is the only timer.
func TestWirePeerWaitDrained(t *testing.T) {
	conn := newSinkConn(false)
	p := newWirePeer(WireChaos{}, time.Hour, func(*wireFrame) bool { return false }, nil)
	defer p.close()
	p.attach(conn, newFrameReader(conn))
	p.send(frameFin, nil, nil)

	start := time.Now()
	p.waitDrained(30 * time.Millisecond)
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("unacked window: waitDrained returned after %v, before its 30ms cap", waited)
	}
	done := make(chan struct{})
	go func() {
		p.waitDrained(time.Minute)
		close(done)
	}()
	inject(p, &wireFrame{Kind: frameAck, AckUpTo: 1})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waitDrained still blocked after the ack that emptied the window")
	}
}
