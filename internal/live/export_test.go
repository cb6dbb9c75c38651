package live

import (
	"errors"
	"io"
	"time"

	"repro/internal/sim"
)

// SetDelayHook installs a test observer that sees every latency draw
// (pid, delay) before the sending worker sleeps it. Test-only: the hook is
// how the latency tests pin the delay streams.
func (ct *ChanTransport) SetDelayHook(h func(pid int, d time.Duration)) { ct.delayHook = h }

// BounceConn force-drops join i's current connection as if the network had
// failed, without declaring the session dead — test instrumentation for the
// reconnect + resend path.
func (wt *WireTransport) BounceConn(i int) {
	if i >= 0 && i < len(wt.sessions) {
		p := wt.sessions[i].peer
		p.mu.Lock()
		if c := p.conn; c != nil {
			p.downLocked(c, errors.New("live: wire connection bounced"))
		}
		p.mu.Unlock()
	}
}

// ExpireSession force-expires join i's session as if its reconnect grace had
// already lapsed: the deterministic in-process stand-in for SIGKILLing the
// join process (the cmd-level cluster test sends the real signal).
func (wt *WireTransport) ExpireSession(i int) {
	if i >= 0 && i < len(wt.sessions) {
		wt.expire(wt.sessions[i])
	}
}

// Frames sums over every session's peer: the frames the serve side has put on
// the wire by kind (first transmissions of sequenced frames, and standalone
// acks; retransmissions and chaos duplicates are not counted), and the
// sequenced frames it has accepted from the joins — yield frames all.
func (wt *WireTransport) Frames() (sent [FrameFin + 1]int, yieldFrames int) {
	for _, s := range wt.sessions {
		s.peer.mu.Lock()
		for k := range sent {
			sent[k] += s.peer.sent[k]
		}
		yieldFrames += int(s.peer.want - 1)
		s.peer.mu.Unlock()
	}
	return sent, yieldFrames
}

// Wire frame codec exports for fuzz/round-trip tests.
type (
	WireFrame = wireFrame
	WireGrant = wireGrant
)

const WireVersion = wireVersion

func AppendWireFrame(b []byte, f *WireFrame) ([]byte, error) { return appendWireFrame(b, f) }
func DecodeWireFrame(body []byte) (*WireFrame, error) {
	return decodeWireFrame(new(sim.WireReader), body)
}
func ReadWireFrame(r io.Reader) (*WireFrame, error)  { return newFrameReader(r).next() }
func WriteWireFrame(w io.Writer, f *WireFrame) error { return writeWireFrame(w, f) }
func ChaosDecide(c WireChaos, seq uint64) uint8      { return uint8(c.decide(seq)) }

// FrameReader reads a stream of frames through one reused buffer, as a
// peer's read loop does.
type FrameReader struct{ fr *frameReader }

func NewFrameReader(r io.Reader) FrameReader    { return FrameReader{newFrameReader(r)} }
func (r FrameReader) Next() (*WireFrame, error) { return r.fr.next() }

const (
	FrameHello   = frameHello
	FrameWelcome = frameWelcome
	FrameReady   = frameReady
	FrameGrant   = frameGrant
	FrameYield   = frameYield
	FrameCrash   = frameCrash
	FrameRestart = frameRestart
	FrameAck     = frameAck
	FrameFin     = frameFin
)
