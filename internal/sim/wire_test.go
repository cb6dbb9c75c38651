package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// testNote is a payload for a test-local wire table: tag 1, a string and an
// optional nested payload (as core.COrdinary nests its Value).
type testNote struct {
	Text  string
	Inner any
}

// withTestCodec installs a one-type payload table for the test's duration.
func withTestCodec(t *testing.T) {
	prev := RegisterPayloadCodec(PayloadCodec{
		Append: func(b []byte, payload any) ([]byte, error) {
			n, ok := payload.(testNote)
			if !ok {
				return b, ErrUnknownPayload
			}
			b = append(b, 1, byte(len(n.Text)))
			return AppendPayload(append(b, n.Text...), n.Inner)
		},
		Read: func(tag byte, r *WireReader) any {
			if tag != 1 {
				r.Fail(errors.New("tag unknown"))
				return nil
			}
			return testNote{Text: r.String(), Inner: r.Payload()}
		},
	})
	t.Cleanup(func() { RegisterPayloadCodec(prev) })
}

func TestWireScalarsAndSequences(t *testing.T) {
	b := AppendBool(AppendBool(nil, true), false)
	b = AppendWords(b, []uint64{1, 1 << 63})
	b = AppendWords(b, nil)
	b = append(b, 3, 'a', 'b', 'c', 0x80, 0x01, 0x03) // "abc", uvarint 128, varint -2
	var r WireReader
	r.Reset(b)
	if !r.Bool() || r.Bool() {
		t.Error("bools")
	}
	if ws := r.Words(); !reflect.DeepEqual(ws, []uint64{1, 1 << 63}) {
		t.Errorf("words: %v", ws)
	}
	if ws := r.Words(); ws != nil {
		t.Errorf("empty words decode as %v, want nil", ws)
	}
	if s, u, i := r.String(), r.Uvarint(), r.Int(); s != "abc" || u != 128 || i != -2 {
		t.Errorf("string %q uvarint %d int %d", s, u, i)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Errorf("after a clean read: err %v, %d bytes left", r.Err(), r.Len())
	}
	if r.Byte(); r.Err() == nil {
		t.Error("read past the end succeeded")
	}
	first := r.Err()
	r.Fail(errors.New("later"))
	if r.Uvarint() != 0 || r.Varint() != 0 || r.String() != "" || r.Words() != nil || r.Payload() != nil || r.Err() != first {
		t.Errorf("failure not sticky: %v", r.Err())
	}
	for name, body := range map[string][]byte{
		"bool byte 2":   {2},
		"count > bytes": {5, 1, 2},
		"words > bytes": {2, 0, 0, 0, 0, 0, 0, 0, 0},
		"open uvarint":  {0x80},
	} {
		r.Reset(body)
		switch name {
		case "bool byte 2":
			r.Bool()
		case "count > bytes":
			_ = r.String()
		case "words > bytes":
			r.Words()
		default:
			r.Varint()
		}
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWirePayloadsMessagesYields(t *testing.T) {
	var r WireReader
	if _, err := AppendPayload(nil, testNote{}); !errors.Is(err, ErrUnknownPayload) {
		t.Errorf("no table registered: %v", err)
	}
	if r.Reset([]byte{1}); r.Payload() != nil || !errors.Is(r.Err(), ErrUnknownPayload) {
		t.Errorf("no table registered, decode: %v", r.Err())
	}
	withTestCodec(t)
	if _, err := AppendPayload(nil, 42); !errors.Is(err, ErrUnknownPayload) {
		t.Errorf("type outside the table: %v", err)
	}

	msgs := []Message{{From: 1, To: 2, SentAt: 7, Payload: testNote{Text: "hi", Inner: testNote{Text: "in"}}}, {From: 3, To: 0, SentAt: -1}}
	b, err := AppendMessages(nil, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reset(b); !reflect.DeepEqual(r.Messages(), msgs) || r.Err() != nil || r.Len() != 0 {
		t.Errorf("messages do not round-trip: %v", r.Err())
	}
	if b, _ = AppendMessages(nil, nil); len(b) != 1 {
		t.Errorf("no messages: % x", b)
	}
	if r.Reset(b); r.Messages() != nil {
		t.Error("no messages decode as non-nil")
	}
	if _, err := AppendMessages(nil, []Message{{Payload: 42}}); err == nil {
		t.Error("message with a payload outside the table encoded")
	}

	for _, y := range []Yield{
		{},
		{Kind: YieldSleep, Until: Forever},
		{Kind: YieldAction, Action: Action{WorkUnit: 9, Sends: []Send{{To: 4, Payload: testNote{Text: "s"}}, {To: 5}},
			Broadcast: Broadcast{To: []int{0, 1, 2}, Payload: testNote{Text: "b"}}}},
	} {
		b, err := AppendYield(nil, &y)
		if err != nil {
			t.Fatal(err)
		}
		if r.Reset(b); !reflect.DeepEqual(r.Yield(), y) || r.Err() != nil || r.Len() != 0 {
			t.Errorf("yield %+v does not round-trip: %v", y, r.Err())
		}
		for cut := 0; cut < len(b); cut++ {
			r.Reset(b[:cut])
			if r.Yield(); r.Err() == nil {
				t.Errorf("yield %+v: prefix of %d of %d bytes decoded", y, cut, len(b))
			}
		}
	}
	if _, err := AppendYield(nil, &Yield{Action: Action{Sends: []Send{{Payload: 42}}}}); err == nil {
		t.Error("send with a payload outside the table encoded")
	}
	r.Reset([]byte{3, 0, 0, 0, 0, 0})
	if r.Yield(); r.Err() == nil {
		t.Error("yield kind 3 decoded")
	}
	if r.Reset([]byte{9}); r.Payload() != nil || r.Err() == nil {
		t.Error("unknown tag decoded")
	}

	// A payload nested deeper than the bound is refused, not recursed into.
	deep := []byte{}
	for i := 0; i <= maxPayloadDepth; i++ {
		deep = append(deep, 1, 0)
	}
	r.Reset(append(deep, 0))
	if r.Payload(); r.Err() == nil || !strings.Contains(r.Err().Error(), "nested") {
		t.Errorf("nesting past the bound: %v", r.Err())
	}
}
