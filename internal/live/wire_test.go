package live_test

// Wire-format tests: frame codec round trips over the whole protocol
// payload alphabet, golden bytes for every sample frame, partial-read, bounds
// and hostile-count behaviour of the decoder, its allocation budget,
// chaos-decision determinism, and a decode fuzzer. These pin the byte-level
// contract the cluster tests exercise end to end.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/view"
)

// sampleFrame is one named frame of the codec's test alphabet.
type sampleFrame struct {
	name string
	f    *live.WireFrame
}

// wireOneMessageGrant is the frame the allocation budget is stated for: one
// step grant carrying one checkpoint message.
func wireOneMessageGrant() *live.WireFrame {
	return &live.WireFrame{Kind: live.FrameGrant, Seq: 1, AckUpTo: 1, Grants: []live.WireGrant{
		{PID: 3, Grant: live.Grant{Round: 9, Msgs: []sim.Message{{From: 1, To: 2, SentAt: 7, Payload: core.PartialCP{C: 4}}}}},
	}}
}

// wireSampleFrames covers every frame kind, with session frames carrying
// every payload type in the DHW92 suite's wire table — a type missing from
// the table fails here at encode time instead of failing a live cluster.
func wireSampleFrames() []sampleFrame {
	msgs := func(payload any) []sim.Message {
		return []sim.Message{{From: 1, To: 2, SentAt: 7, Payload: payload}}
	}
	frames := []sampleFrame{
		{"hello", &live.WireFrame{Kind: live.FrameHello, Version: live.WireVersion, Session: 12, Rejoin: true}},
		{"welcome", &live.WireFrame{Kind: live.FrameWelcome, Version: live.WireVersion, Session: 12, Spec: live.WireSpec{
			Protocol: "b", Units: 24, Workers: 8, Lo: 4, Hi: 8,
			Latency: live.Latency{Base: 1000, Jitter: 2000, Seed: 42},
		}}},
		{"ready", &live.WireFrame{Kind: live.FrameReady, Session: 12, Recoverable: []bool{true, false, true}}},
		{"grant-one-message", wireOneMessageGrant()},
		{"grant-kills", &live.WireFrame{Kind: live.FrameGrant, Seq: 2, AckUpTo: 1, Grants: []live.WireGrant{
			{PID: 3, Grant: live.Grant{Kill: true}}, {PID: 4, Grant: live.Grant{Kill: true}},
		}}},
		{"grant-round", &live.WireFrame{Kind: live.FrameGrant, Seq: 3, AckUpTo: 2, Grants: []live.WireGrant{
			{PID: 4, Grant: live.Grant{Kill: true}},
			{PID: 5, Grant: live.Grant{Round: 10}},
			{PID: 6, Grant: live.Grant{Round: 10, Msgs: []sim.Message{
				{From: 0, To: 6, SentAt: 9, Payload: core.FullCP{C: 4, G: 2}},
				{From: 1, To: 6, SentAt: 9, Payload: core.GoAhead{}},
			}}},
		}}},
		{"yield-round", &live.WireFrame{Kind: live.FrameYield, Seq: 3, AckUpTo: 3, Yields: []live.YieldFrame{
			{PID: 3, Round: 9, Label: "b:coord", Active: true,
				Yield: sim.Yield{Kind: sim.YieldAction, Action: sim.Action{
					WorkUnit: 5,
					Sends:    []sim.Send{{To: 0, Payload: core.FullCP{C: 4, G: 2}}},
					Broadcast: sim.Broadcast{To: []int{0, 1, 2}, Payload: &core.DView{
						Phase: 2, S: []uint64{0b1011}, T: []uint64{0b0100}, Done: false,
					}},
				}}},
			{PID: 5, Round: 9, Yield: sim.Yield{Kind: sim.YieldSleep, Until: 272629760}},
			{PID: 6, Round: 9, Label: "b:worker"},
		}}},
		{"yield-panicked", &live.WireFrame{Kind: live.FrameYield, Seq: 5, AckUpTo: 4, Yields: []live.YieldFrame{
			{PID: 6, Round: 12, Panicked: true, PanicVal: "sim: invariant violated at round 12"},
		}}},
		{"crash", &live.WireFrame{Kind: live.FrameCrash, Seq: 6, AckUpTo: 4, PID: 2}},
		{"restart", &live.WireFrame{Kind: live.FrameRestart, Seq: 7, AckUpTo: 5, PID: 2}},
		{"ack", &live.WireFrame{Kind: live.FrameAck, AckUpTo: 7}},
		{"fin", &live.WireFrame{Kind: live.FrameFin, Seq: 8, AckUpTo: 7}},
	}
	// One grant per remaining payload kind the protocols put on the wire,
	// named by its type with any pointer star trimmed.
	for i, payload := range []any{
		core.GoAhead{},
		core.AreYouAlive{},
		core.Alive{},
		core.COrdinary{View: view.Snapshot{
			Faulty: []bool{false, true}, Point: []int{3, 0}, Round: []int64{8, 2},
		}, Value: core.PartialCP{C: 1}},
		core.UniformDone{U: 6},
		core.NaiveReport{Units: 3},
		&core.Rumor{Done: []uint64{0xfe, 1 << 63}},
	} {
		frames = append(frames, sampleFrame{
			"grant-" + strings.TrimPrefix(fmt.Sprintf("%T", payload), "*"),
			&live.WireFrame{Kind: live.FrameGrant, Seq: uint64(10 + i), Grants: []live.WireGrant{
				{PID: 1, Grant: live.Grant{Round: 4, Msgs: msgs(payload)}},
			}},
		})
	}
	return frames
}

func encodeSample(t testing.TB, sf sampleFrame) []byte {
	t.Helper()
	b, err := live.AppendWireFrame(nil, sf.f)
	if err != nil {
		t.Fatalf("frame %s: encode: %v", sf.name, err)
	}
	return b
}

// TestWireFrameRoundTrip pins encode → write → read → decode as the
// identity over the full frame alphabet, both per-frame and as a packed
// stream read through one reused buffer (frames must be self-delimiting back
// to back, and a decoded frame must not alias the reader's buffer).
func TestWireFrameRoundTrip(t *testing.T) {
	t.Parallel()
	var stream bytes.Buffer
	frames := wireSampleFrames()
	for _, sf := range frames {
		b := encodeSample(t, sf)
		got, err := live.ReadWireFrame(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("frame %s: read back: %v", sf.name, err)
		}
		if !reflect.DeepEqual(got, sf.f) {
			t.Errorf("frame %s round trip diverges:\nsent: %+v\ngot:  %+v", sf.name, sf.f, got)
		}
		stream.Write(b)
	}
	r := live.NewFrameReader(&stream)
	got := make([]*live.WireFrame, len(frames))
	for i, sf := range frames {
		var err error
		if got[i], err = r.Next(); err != nil {
			t.Fatalf("packed stream frame %s: %v", sf.name, err)
		}
	}
	for i, sf := range frames { // compared only now: later reads reused the buffer
		if !reflect.DeepEqual(got[i], sf.f) {
			t.Errorf("packed stream frame %s diverges: %+v", sf.name, got[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after the last frame: want io.EOF, got %v", err)
	}
}

var updateGolden = flag.Bool("update-wire-golden", false, "rewrite internal/live/testdata/wire_frames.golden from the current encoder")

// TestWireFrameGolden holds the encoder to the committed bytes of every
// sample frame: the format is append-only (new kinds, new payload tags, a
// version bump for anything else), and this is the test that says so. After
// a deliberate format change, bump wireVersion and regenerate with
// -update-wire-golden.
func TestWireFrameGolden(t *testing.T) {
	const path = "testdata/wire_frames.golden"
	var cur bytes.Buffer
	for _, sf := range wireSampleFrames() {
		fmt.Fprintf(&cur, "%s %s\n", sf.name, hex.EncodeToString(encodeSample(t, sf)))
	}
	if *updateGolden {
		if err := os.WriteFile(path, cur.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, cur.Bytes()) {
		return
	}
	wantLines, curLines := strings.Split(string(want), "\n"), strings.Split(cur.String(), "\n")
	for i := 0; i < max(len(wantLines), len(curLines)); i++ {
		var w, c string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(curLines) {
			c = curLines[i]
		}
		if w != c {
			t.Errorf("wire format changed at line %d:\ngolden:  %s\nencoder: %s", i+1, w, c)
		}
	}
}

// TestWireFrameTruncation pins the reader's behaviour on a connection dying
// mid-frame: every proper prefix of a valid frame is an error — EOF only at
// the clean boundary (zero bytes), io.ErrUnexpectedEOF anywhere inside —
// and never a mangled frame handed onward. One level down, every proper
// prefix of every sample frame's body is refused by the decoder.
func TestWireFrameTruncation(t *testing.T) {
	t.Parallel()
	for _, sf := range wireSampleFrames() {
		full := encodeSample(t, sf)
		for cut := 0; cut < len(full); cut++ {
			_, err := live.ReadWireFrame(bytes.NewReader(full[:cut]))
			switch {
			case err == nil:
				t.Fatalf("%s cut at %d of %d: truncated frame accepted", sf.name, cut, len(full))
			case cut == 0 && err != io.EOF:
				t.Errorf("%s cut at 0: want clean io.EOF, got %v", sf.name, err)
			case cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF):
				t.Errorf("%s cut at %d: want io.ErrUnexpectedEOF, got %v", sf.name, cut, err)
			}
		}
		for cut := 0; cut < len(full)-4; cut++ {
			if f, err := live.DecodeWireFrame(full[4 : 4+cut]); err == nil {
				t.Errorf("%s: body prefix of %d of %d bytes decoded: %+v", sf.name, cut, len(full)-4, f)
			}
		}
	}
}

// TestWireFrameBounds pins the pre-allocation checks: zero-length and
// over-limit length prefixes are rejected before any body read; unknown
// kinds, trailing bytes and a sequenced kind without a Seq are refused; and
// an inner count larger than the bytes behind it is rejected without any
// allocation proportional to the claim.
func TestWireFrameBounds(t *testing.T) {
	read := func(hdr []byte) error {
		_, err := live.ReadWireFrame(bytes.NewReader(hdr))
		return err
	}
	if err := read([]byte{0, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("zero-length frame: want out-of-range error, got %v", err)
	}
	// 64MB length prefix with no body: must be refused on the header alone,
	// not by attempting (and failing) a 64MB allocation + read.
	if err := read([]byte{0x04, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("oversized frame: want out-of-range error, got %v", err)
	}
	if _, err := live.DecodeWireFrame(nil); err == nil {
		t.Error("empty body decoded")
	}
	if _, err := live.DecodeWireFrame([]byte{200, 1, 0}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown kind: want rejection, got %v", err)
	}
	if _, err := live.AppendWireFrame(nil, &live.WireFrame{Kind: 200}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown kind: want encode refusal, got %v", err)
	}
	fin := encodeSample(t, sampleFrame{"fin", &live.WireFrame{Kind: live.FrameFin, Seq: 8}})[4:]
	if _, err := live.DecodeWireFrame(append(fin, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: want rejection, got %v", err)
	}
	if _, err := live.DecodeWireFrame([]byte{live.FrameFin, 0, 0}); err == nil {
		t.Error("sequenced frame with Seq 0 decoded")
	}

	// Hostile counts: each body claims 2^40 elements with a handful of bytes
	// behind the claim.
	huge := binary.AppendUvarint(nil, 1<<40)
	session := func(kind uint8, rest ...[]byte) []byte {
		b := []byte{kind, 1, 0} // kind, Seq 1, AckUpTo 0
		for _, r := range rest {
			b = append(b, r...)
		}
		return append(b, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	}
	grantEntry := []byte{1, 2, 18, 0}                                 // one entry: pid 1, round 9, not a kill
	yieldEntry := []byte{1, 2, 18, 0, 0, byte(sim.YieldAction), 0, 0} // pid, round, flags, label, kind, until, work
	for name, body := range map[string][]byte{
		"grant entries":   session(live.FrameGrant, huge),
		"grant messages":  session(live.FrameGrant, grantEntry[:1], grantEntry[1:], huge),
		"yield entries":   session(live.FrameYield, huge),
		"yield sends":     session(live.FrameYield, yieldEntry[:1], yieldEntry[1:], huge),
		"broadcast group": session(live.FrameYield, yieldEntry[:1], yieldEntry[1:], []byte{0}, huge),
		"bitset words":    session(live.FrameGrant, grantEntry[:1], grantEntry[1:], []byte{1, 0, 0, 0, 10 /* tagRumor */}, huge),
		"view snapshot":   session(live.FrameGrant, grantEntry[:1], grantEntry[1:], []byte{1, 0, 0, 0, 6 /* tagCOrdinary */}, huge),
		"label":           session(live.FrameYield, []byte{1, 2, 18, 0}, huge),
		"recoverable":     append(append([]byte{live.FrameReady, 12}, huge...), 1, 0, 1),
	} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(20, func() { _, err = live.DecodeWireFrame(body) })
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: hostile count: want an exceeds-the-bytes-left rejection, got %v", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; allocs > 16 || grew > 64<<10 {
			t.Errorf("%s: rejecting a 2^40 claim cost %.0f allocs/run, %d bytes over 21 runs", name, allocs, grew)
		}
	}
}

// TestWireFrameAllocs pins the codec's allocation budget: encoding into a
// reused buffer is free, and a full encode + decode of the one-message grant
// costs at most 8 allocations (the frame, its grant and message slices, the
// boxed payload) where the gob codec it replaced cost 488. The ack riding on
// that grant is two bytes of it and costs nothing: a frame with AckUpTo set
// encodes and decodes in exactly the allocations of one without.
func TestWireFrameAllocs(t *testing.T) {
	grant := wireOneMessageGrant()
	buf, err := live.AppendWireFrame(nil, grant)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = live.AppendWireFrame(buf, grant) }); n != 0 {
		t.Errorf("encode into a reused buffer: %.0f allocs/op, want 0", n)
	}
	r := live.NewFrameReader(&repeatReader{b: buf})
	roundTrip := func(f *live.WireFrame) float64 {
		return testing.AllocsPerRun(100, func() {
			b, _ := live.AppendWireFrame(buf, f)
			if _, err := r.Next(); err != nil || len(b) != len(buf) {
				t.Fatalf("round trip: %v", err)
			}
		})
	}
	withAck := roundTrip(grant)
	if withAck > 8 {
		t.Errorf("encode + decode of a one-message grant: %.0f allocs/op, want at most 8", withAck)
	}
	bare := *grant
	bare.AckUpTo = 0
	if b, _ := live.AppendWireFrame(nil, &bare); len(b) != len(buf) {
		t.Fatalf("test frames differ in length (%d vs %d): AckUpTo 0 and 1 should both be one byte", len(b), len(buf))
	}
	if without := roundTrip(&bare); without != withAck {
		t.Errorf("piggybacked ack: %.0f allocs/op with AckUpTo set, %.0f without", withAck, without)
	}
}

// BenchmarkWireFrameRoundTrip is the codec layer's own figure: one
// one-message grant encoded into a reused buffer and decoded through a
// reused reader, as a peer pair does per frame.
func BenchmarkWireFrameRoundTrip(b *testing.B) {
	grant := wireOneMessageGrant()
	buf, err := live.AppendWireFrame(nil, grant)
	if err != nil {
		b.Fatal(err)
	}
	r := live.NewFrameReader(&repeatReader{b: buf})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = live.AppendWireFrame(buf, grant)
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatReader serves the same bytes forever.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestWireChaosDeterministic pins that chaos decisions are a pure function
// of (Seed, seq) — the property that makes chaotic cluster runs replayable —
// and that the empirical action mix tracks the configured probabilities.
func TestWireChaosDeterministic(t *testing.T) {
	t.Parallel()
	c := live.WireChaos{Drop: 0.2, Dup: 0.1, Reorder: 0.15, Seed: 99}
	const trials = 20000
	counts := map[uint8]int{}
	for seq := uint64(1); seq <= trials; seq++ {
		a := live.ChaosDecide(c, seq)
		if b := live.ChaosDecide(c, seq); b != a {
			t.Fatalf("seq %d: decision not deterministic (%d then %d)", seq, a, b)
		}
		counts[a]++
	}
	total := float64(trials)
	for want, got := range map[float64]int{0.2: counts[1], 0.1: counts[2], 0.15: counts[3]} {
		if f := float64(got) / total; f < want-0.02 || f > want+0.02 {
			t.Errorf("action rate %.3f, want ~%.2f", f, want)
		}
	}
	other := live.WireChaos{Drop: 0.2, Dup: 0.1, Reorder: 0.15, Seed: 100}
	same := 0
	for seq := uint64(1); seq <= 1000; seq++ {
		if live.ChaosDecide(c, seq) == live.ChaosDecide(other, seq) {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical fault patterns")
	}
}

// FuzzWireFrame feeds arbitrary bodies to the decoder: anything it accepts
// must re-encode and decode back to the same frame (the codec is stable on
// its accepted set), and anything else must be rejected loudly — never a
// panic, never a silent truncation.
func FuzzWireFrame(f *testing.F) {
	for _, sf := range wireSampleFrames() {
		f.Add(encodeSample(f, sf)[4:]) // seed with the body, sans length prefix
	}
	f.Add([]byte{})
	f.Add([]byte{live.FrameGrant, 1, 0, 0xff, 0xff, 0x03, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := live.DecodeWireFrame(body)
		if err != nil {
			return // rejected loudly: fine
		}
		b, err := live.AppendWireFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v\nframe: %+v", err, fr)
		}
		again, err := live.ReadWireFrame(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-encoded frame does not read back: %v\nframe: %+v", err, fr)
		}
		if !reflect.DeepEqual(again, fr) {
			t.Fatalf("codec not stable:\nfirst:  %+v\nsecond: %+v", fr, again)
		}
	})
}
