package live

import (
	"io"
	"time"
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
		wt.sessions[i].peer.bounce()
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

// Wire frame codec exports for fuzz/round-trip tests.
type WireFrame = wireFrame

func EncodeWireFrame(f *WireFrame) ([]byte, error)    { return encodeWireFrame(f) }
func DecodeWireFrame(body []byte) (*WireFrame, error) { return decodeWireFrame(body) }
func ReadWireFrame(r io.Reader) (*WireFrame, error)   { return readWireFrame(r) }
func WriteWireFrame(w io.Writer, f *WireFrame) error  { return writeWireFrame(w, f) }
func ChaosDecide(c WireChaos, seq uint64) uint8       { return uint8(c.decide(seq)) }

const (
	FrameHello   = frameHello
	FrameWelcome = frameWelcome
	FrameReady   = frameReady
	FrameGrant   = frameGrant
	FrameYield   = frameYield
	FrameCrash   = frameCrash
	FrameRestart = frameRestart
	FrameAck     = frameAck
)
