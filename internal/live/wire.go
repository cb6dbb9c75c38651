package live

// The wire protocol: how a serve-side Plane and its join-side workers talk
// across OS processes. Every frame on a connection is length-prefixed — a
// 4-byte big-endian body length, then one kind byte and a per-kind body of
// varint scalars (layout table: DESIGN.md §6). A frame is self-contained and
// stateless: decoding one needs nothing but its own bytes, which is what
// lets the chaos layer drop, duplicate or reorder whole frames, and what
// makes resend-after-reconnect a plain byte replay.
//
// Frame kinds split into two planes:
//
//   - Handshake (frameHello / frameWelcome / frameReady) travels raw on a
//     fresh connection before the sequenced session starts. Hello and
//     welcome lead with the format version; a mismatch is refused by both
//     ends before anything else is decoded.
//   - Session traffic is sequenced by wirePeer: ascending Seq per direction,
//     every frame carrying the sender's cumulative AckUpTo, sender-side
//     retransmission of unacked frames, receiver-side dedup and reordering
//     (peer.go). frameGrant and frameYield carry a whole round for one join
//     — every grant the coordinator fanned out to the join's PID range, every
//     yield its workers answered with; frameCrash / frameRestart are per-PID
//     controls; frameFin closes the session; frameAck (Seq 0) is the
//     standalone ack for when nothing sequenced is there to carry it.
//
// Message payloads cross as sim's tagged union; every concrete payload type a
// protocol sends must be in the registered sim.PayloadCodec's table
// (internal/core/wire.go holds the DHW92 suite's).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
)

// wireVersion is the frame format's version, announced in hello and welcome.
// Bump it on any layout change that is not a pure append of kinds or tags.
const wireVersion = 2

// Frame kinds. Values are part of the wire format; append only.
const (
	frameHello   uint8 = iota + 1 // join → serve: first frame on any connection
	frameWelcome                  // serve → join: session id + run spec (fresh joins)
	frameReady                    // join → serve: workers built, recoverability bits
	frameGrant                    // serve → join: the round's step grants (and kills) for the join
	frameYield                    // join → serve: the yields answering one grant frame
	frameCrash                    // serve → join: checkpoint pid at crash time
	frameRestart                  // serve → join: revive pid from its checkpoint
	frameAck                      // either: standalone cumulative ack
	frameFin                      // serve → join: session closed; EOF after this is success
)

// maxWireFrame bounds a frame body; a length prefix beyond it is rejected
// before any allocation, so a corrupt or hostile peer cannot OOM the reader.
const maxWireFrame = 16 << 20

// WireSpec is the run configuration the serve side announces to each join in
// its welcome frame: everything a join needs to build its slice of the
// cluster. Lo/Hi is the join's contiguous PID range [Lo, Hi).
type WireSpec struct {
	Protocol string // protocol name the join resolves to steppers
	Units    int    // n
	Workers  int    // t, across the whole cluster
	Lo, Hi   int
	Latency  Latency // join-side yield latency model (per-PID seeded streams)
}

// wireGrant is one entry of a grant frame: a Grant and the PID it is for.
type wireGrant struct {
	PID int
	Grant
}

// wireFrame is a decoded frame of any kind; each kind uses only its own
// fields (and encodes only those).
type wireFrame struct {
	Kind uint8
	// Session frames. Seq is 0 on frameAck; AckUpTo says every sequenced
	// frame up to and including it arrived.
	Seq     uint64
	AckUpTo uint64
	Grants  []wireGrant  // frameGrant
	Yields  []YieldFrame // frameYield; PanicVal is the panic's text rendering, Died never set
	PID     int          // frameCrash / frameRestart

	// Handshake. A hello or welcome whose Version is not wireVersion decodes
	// no further: the rest of its layout is the other build's business.
	Version     uint8
	Session     uint64
	Rejoin      bool
	Spec        WireSpec
	Recoverable []bool // ready frame: per-PID (range-relative) sim.Recoverable bits
}

// beginWireFrame starts a frame in b (reusing its storage): the length
// prefix, patched by endWireFrame, and the kind byte.
func beginWireFrame(b []byte, kind uint8) []byte { return append(b[:0], 0, 0, 0, 0, kind) }

func endWireFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// appendWireGrant writes one grant-frame entry.
func appendWireGrant(b []byte, pid int, g Grant) ([]byte, error) {
	b = binary.AppendVarint(b, int64(pid))
	b = binary.AppendVarint(b, g.Round)
	b = sim.AppendBool(b, g.Kill)
	return sim.AppendMessages(b, g.Msgs)
}

const (
	yieldPanicked = 1 << iota
	yieldActive
)

// appendWireYield writes one yield-frame entry. A panic value crosses as its
// text rendering (fmt.Errorf of a string renders identically, so cross-plane
// error texts still match).
func appendWireYield(b []byte, f *YieldFrame) ([]byte, error) {
	var flags byte
	if f.Panicked {
		flags |= yieldPanicked
	}
	if f.Active {
		flags |= yieldActive
	}
	b = binary.AppendVarint(b, int64(f.PID))
	b = binary.AppendVarint(b, f.Round)
	b = append(b, flags)
	b = appendWireString(b, f.Label)
	if f.Panicked {
		b = appendWireString(b, fmt.Sprint(f.PanicVal))
	}
	return sim.AppendYield(b, &f.Yield)
}

func appendWireString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendWireFrame renders one frame ready to write into b's storage: 4-byte
// big-endian body length, then the body. The session paths build their
// frames piecewise (wirePeer.send); this is the whole-frame form the
// handshake and the codec tests use, over the same entry encoders.
func appendWireFrame(b []byte, f *wireFrame) ([]byte, error) {
	b = beginWireFrame(b, f.Kind)
	var err error
	switch f.Kind {
	case frameHello:
		b = append(b, f.Version)
		b = binary.AppendUvarint(b, f.Session)
		b = sim.AppendBool(b, f.Rejoin)
	case frameWelcome:
		b = append(b, f.Version)
		b = binary.AppendUvarint(b, f.Session)
		sp := &f.Spec
		b = appendWireString(b, sp.Protocol)
		for _, v := range [...]int64{int64(sp.Units), int64(sp.Workers), int64(sp.Lo), int64(sp.Hi),
			int64(sp.Latency.Base), int64(sp.Latency.Jitter), sp.Latency.Seed} {
			b = binary.AppendVarint(b, v)
		}
	case frameReady:
		b = binary.AppendUvarint(b, f.Session)
		b = binary.AppendUvarint(b, uint64(len(f.Recoverable)))
		for _, r := range f.Recoverable {
			b = sim.AppendBool(b, r)
		}
	default:
		return b, fmt.Errorf("live: wire frame kind %d unknown", f.Kind)
	case frameGrant, frameYield, frameCrash, frameRestart, frameAck, frameFin:
		b = binary.AppendUvarint(b, f.Seq)
		b = binary.AppendUvarint(b, f.AckUpTo)
		switch f.Kind {
		case frameGrant:
			b = binary.AppendUvarint(b, uint64(len(f.Grants)))
			for i := range f.Grants {
				if b, err = appendWireGrant(b, f.Grants[i].PID, f.Grants[i].Grant); err != nil {
					return b, fmt.Errorf("live: wire frame encode: %w", err)
				}
			}
		case frameYield:
			b = binary.AppendUvarint(b, uint64(len(f.Yields)))
			for i := range f.Yields {
				if b, err = appendWireYield(b, &f.Yields[i]); err != nil {
					return b, fmt.Errorf("live: wire frame encode: %w", err)
				}
			}
		case frameCrash, frameRestart:
			b = binary.AppendVarint(b, int64(f.PID))
		}
	}
	return endWireFrame(b), nil
}

// decodeWireFrame parses one frame body (the bytes after the length prefix)
// through r, rejecting loudly anything that is not exactly one well-formed
// frame. The frame shares no storage with body.
func decodeWireFrame(r *sim.WireReader, body []byte) (*wireFrame, error) {
	r.Reset(body)
	f := &wireFrame{Kind: r.Byte()}
	switch f.Kind {
	case frameHello, frameWelcome:
		if f.Version = r.Byte(); f.Version != wireVersion && r.Err() == nil {
			return f, nil // refused by the caller, naming both versions
		}
		f.Session = r.Uvarint()
		if f.Kind == frameHello {
			f.Rejoin = r.Bool()
			break
		}
		sp := &f.Spec
		sp.Protocol = r.String()
		sp.Units, sp.Workers, sp.Lo, sp.Hi = r.Int(), r.Int(), r.Int(), r.Int()
		sp.Latency.Base, sp.Latency.Jitter = time.Duration(r.Varint()), time.Duration(r.Varint())
		sp.Latency.Seed = r.Varint()
	case frameReady:
		f.Session = r.Uvarint()
		if n := r.Count(1); n > 0 {
			f.Recoverable = make([]bool, n)
			for i := range f.Recoverable {
				f.Recoverable[i] = r.Bool()
			}
		}
	case frameGrant, frameYield, frameCrash, frameRestart, frameAck, frameFin:
		f.Seq, f.AckUpTo = r.Uvarint(), r.Uvarint()
		if (f.Seq == 0) != (f.Kind == frameAck) {
			r.Fail(fmt.Errorf("seq %d on frame kind %d", f.Seq, f.Kind))
		}
		switch f.Kind {
		case frameGrant:
			if n := r.Count(4); n > 0 { // pid, round, kill byte, message count
				f.Grants = make([]wireGrant, n)
				for i := range f.Grants {
					g := &f.Grants[i]
					g.PID, g.Round, g.Kill, g.Msgs = r.Int(), r.Varint(), r.Bool(), r.Messages()
				}
			}
		case frameYield:
			if n := r.Count(10); n > 0 { // pid, round, flags, label length, six yield bytes
				f.Yields = make([]YieldFrame, n)
				for i := range f.Yields {
					decodeWireYield(r, &f.Yields[i])
				}
			}
		case frameCrash, frameRestart:
			f.PID = r.Int()
		}
	default:
		r.Fail(errors.New("kind unknown")) // unless the body was empty: that failure stands
	}
	if r.Err() == nil && r.Len() > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("live: wire frame decode (kind %d): %w", f.Kind, err)
	}
	return f, nil
}

func decodeWireYield(r *sim.WireReader, f *YieldFrame) {
	f.PID, f.Round = r.Int(), r.Varint()
	flags := r.Byte()
	if flags&^(yieldPanicked|yieldActive) != 0 {
		r.Fail(fmt.Errorf("yield flags %#x", flags))
	}
	f.Panicked, f.Active = flags&yieldPanicked != 0, flags&yieldActive != 0
	f.Label = r.String()
	if f.Panicked {
		f.PanicVal = r.String()
	}
	f.Yield = r.Yield()
}

// frameReader reads length-prefixed frames off one connection, through a
// buffer and a decoder state it reuses from frame to frame.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
	rd  sim.WireReader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next reads one frame. A partial read — the connection dying mid-frame —
// surfaces as io.ErrUnexpectedEOF, never as a truncated frame handed onward.
func (fr *frameReader) next() (*wireFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > maxWireFrame {
		return nil, fmt.Errorf("live: wire frame length %d out of range", n)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return decodeWireFrame(&fr.rd, body)
}

// buffered reports whether input beyond the last frame has already been read
// off the connection.
func (fr *frameReader) buffered() bool { return fr.br.Buffered() > 0 }

// writeWireFrame encodes and writes one handshake frame in a single Write.
func writeWireFrame(w io.Writer, f *wireFrame) error {
	b, err := appendWireFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// errWireVersion is the one-line refusal both ends give a peer built with
// another frame format.
func errWireVersion(peer string, theirs uint8) error {
	return fmt.Errorf("live: wire format version mismatch: %s speaks version %d, this build speaks version %d", peer, theirs, wireVersion)
}

// WireChaos injects deterministic frame-level faults on a peer's outbound
// sequenced frames: each first transmission is dropped, duplicated, or held
// for reordering with the configured probabilities, decided purely by
// (Seed, frame seq) — the same seed reproduces the same fault pattern
// regardless of timing. Chaos never touches retransmissions or standalone
// acks, which is what keeps every run live: a dropped frame (and the ack
// riding on it) sits in the sender's resend window until the retransmit tick
// replays it cleanly. Probabilities must be in [0, 1] and sum to at most 1.
type WireChaos struct {
	Drop    float64
	Dup     float64
	Reorder float64
	Seed    int64
}

func (c WireChaos) validate() error {
	if c.Drop < 0 || c.Dup < 0 || c.Reorder < 0 || c.Drop+c.Dup+c.Reorder > 1 {
		return fmt.Errorf("live: wire chaos probabilities must be non-negative and sum to at most 1 (drop=%v dup=%v reorder=%v)",
			c.Drop, c.Dup, c.Reorder)
	}
	return nil
}

type chaosAction uint8

const (
	chaosNone chaosAction = iota
	chaosDrop
	chaosDup
	chaosHold
)

// decide maps one sequenced frame to its chaos action: a pure function of
// (Seed, seq) via a splitmix64 hash, so runs with the same seed fault the
// same frames (and the zero WireChaos faults none).
func (c WireChaos) decide(seq uint64) chaosAction {
	x := uint64(c.Seed) ^ (seq * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	switch {
	case u < c.Drop:
		return chaosDrop
	case u < c.Drop+c.Dup:
		return chaosDup
	case u < c.Drop+c.Dup+c.Reorder:
		return chaosHold
	}
	return chaosNone
}

// defaultRTO is the retransmit interval for unacked frames; small enough
// that chaos-dropped frames stall a round barely perceptibly, large enough
// that loopback acks always win the race.
const defaultRTO = 20 * time.Millisecond
