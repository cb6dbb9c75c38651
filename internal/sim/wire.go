package sim

// Wire support: what the live plane's socket transport and the protocol
// packages share to put Messages, Actions and Yields on a connection. The
// transport (internal/live) knows frames but not payload types; the protocol
// suite (internal/core) knows its payload types but not frames; they meet
// here — core registers one PayloadCodec, live calls AppendPayload and
// WireReader.Payload. The format is binary.AppendUvarint / AppendVarint
// scalars, a one-byte tag in front of every payload body, and counted
// sequences whose counts are checked against the bytes remaining before
// anything is allocated.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PayloadCodec is a protocol suite's payload table: a tagged union over the
// concrete types it puts in Message.Payload. Tag 0 is reserved for the nil
// payload.
type PayloadCodec struct {
	// Append writes payload's tag byte and body onto b. A type outside the
	// table is an error wrapping ErrUnknownPayload; what b holds past its
	// original length is then the caller's to discard.
	Append func(b []byte, payload any) ([]byte, error)
	// Read decodes the body that follows tag; an unknown tag or a malformed
	// body is reported through r.Fail.
	Read func(tag byte, r *WireReader) any
}

// ErrUnknownPayload marks a payload whose type no registered codec knows.
var ErrUnknownPayload = errors.New("payload type not in the wire table")

var payloadCodec PayloadCodec

// RegisterPayloadCodec installs the payload table and returns the one it
// replaces. A registration table filled at start-up: call it from a package
// init, once per process (tests that extend the table wrap what it returns
// and put it back).
func RegisterPayloadCodec(c PayloadCodec) (prev PayloadCodec) {
	prev, payloadCodec = payloadCodec, c
	return prev
}

// AppendPayload writes one payload (nil included) onto b.
func AppendPayload(b []byte, payload any) ([]byte, error) {
	if payload == nil {
		return append(b, 0), nil
	}
	if payloadCodec.Append == nil {
		return b, fmt.Errorf("%T: %w (no codec registered)", payload, ErrUnknownPayload)
	}
	return payloadCodec.Append(b, payload)
}

// AppendBool writes one 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendWords writes a counted run of raw little-endian 64-bit words: the
// wire form of a bitset.
func AppendWords(b []byte, ws []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// WireReader consumes one frame body. Errors are sticky: after the first
// failure every read returns a zero value, so decoders check Err once at the
// end. Every sequence is decoded through Count, which refuses a count the
// remaining bytes cannot hold, and zero-length sequences decode as nil, so
// decode → encode → decode is reflect.DeepEqual-stable.
type WireReader struct {
	b     []byte
	err   error
	depth int // payloads open around the one being read (COrdinary nests)
}

// Reset points the reader at a new body, clearing any failure. The reader
// never modifies b, and the values it returns are copies: b may be reused as
// soon as decoding is done.
func (r *WireReader) Reset(b []byte) { *r = WireReader{b: b} }

// Err returns the first failure, if any.
func (r *WireReader) Err() error { return r.err }

// Len returns the unread byte count (0 after a failure).
func (r *WireReader) Len() int { return len(r.b) }

// Fail records err as the reader's failure unless one is already recorded.
func (r *WireReader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

var errWireShort = errors.New("truncated or malformed body")

// Uvarint reads one unsigned scalar.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(errWireShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads one signed scalar.
func (r *WireReader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail(errWireShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads one signed scalar as an int.
func (r *WireReader) Int() int { return int(r.Varint()) }

// Byte reads one raw byte.
func (r *WireReader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail(errWireShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads one byte that must be 0 or 1.
func (r *WireReader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail(fmt.Errorf("bool byte %d", c))
	}
	return c == 1
}

// Count reads a sequence length whose elements occupy at least elemSize
// bytes each, failing — before the caller allocates — when the bytes left
// cannot hold that many.
func (r *WireReader) Count(elemSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/elemSize) {
		r.Fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// String reads a counted byte string.
func (r *WireReader) String() string {
	n := r.Count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Words reads what AppendWords wrote.
func (r *WireReader) Words() []uint64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(r.b[8*i:])
	}
	r.b = r.b[8*n:]
	return ws
}

// Payload reads what AppendPayload wrote.
func (r *WireReader) Payload() any {
	tag := r.Byte()
	if tag == 0 || r.err != nil {
		return nil
	}
	if payloadCodec.Read == nil {
		r.Fail(fmt.Errorf("payload tag %d: %w (no codec registered)", tag, ErrUnknownPayload))
		return nil
	}
	// A payload may carry a payload (COrdinary.Value); bound the recursion so
	// a hostile body cannot grow the stack with its length.
	if r.depth++; r.depth > maxPayloadDepth {
		r.Fail(fmt.Errorf("payloads nested deeper than %d", maxPayloadDepth))
		return nil
	}
	p := payloadCodec.Read(tag, r)
	r.depth--
	return p
}

const maxPayloadDepth = 8

// AppendMessages writes a counted run of Messages.
func AppendMessages(b []byte, msgs []Message) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	var err error
	for i := range msgs {
		m := &msgs[i]
		b = binary.AppendVarint(b, int64(m.From))
		b = binary.AppendVarint(b, int64(m.To))
		b = binary.AppendVarint(b, m.SentAt)
		if b, err = AppendPayload(b, m.Payload); err != nil {
			return b, err
		}
	}
	return b, nil
}

// Messages reads what AppendMessages wrote.
func (r *WireReader) Messages() []Message {
	n := r.Count(4) // three scalars and a payload tag
	if n == 0 {
		return nil
	}
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{From: r.Int(), To: r.Int(), SentAt: r.Varint(), Payload: r.Payload()}
	}
	return msgs
}

// AppendYield writes one Yield, every field, whatever its Kind.
func AppendYield(b []byte, y *Yield) ([]byte, error) {
	a := &y.Action
	b = append(b, byte(y.Kind))
	b = binary.AppendVarint(b, y.Until)
	b = binary.AppendVarint(b, int64(a.WorkUnit))
	b = binary.AppendUvarint(b, uint64(len(a.Sends)))
	var err error
	for _, s := range a.Sends {
		b = binary.AppendVarint(b, int64(s.To))
		if b, err = AppendPayload(b, s.Payload); err != nil {
			return b, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(a.Broadcast.To)))
	for _, to := range a.Broadcast.To {
		b = binary.AppendVarint(b, int64(to))
	}
	return AppendPayload(b, a.Broadcast.Payload)
}

// Yield reads what AppendYield wrote.
func (r *WireReader) Yield() (y Yield) {
	y.Kind = YieldKind(r.Byte())
	if y.Kind > YieldSleep {
		r.Fail(fmt.Errorf("yield kind %d", y.Kind))
	}
	y.Until = r.Varint()
	a := &y.Action
	a.WorkUnit = r.Int()
	if n := r.Count(2); n > 0 {
		a.Sends = make([]Send, n)
		for i := range a.Sends {
			a.Sends[i] = Send{To: r.Int(), Payload: r.Payload()}
		}
	}
	if n := r.Count(1); n > 0 {
		a.Broadcast.To = make([]int, n)
		for i := range a.Broadcast.To {
			a.Broadcast.To[i] = r.Int()
		}
	}
	a.Broadcast.Payload = r.Payload()
	return y
}
