package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/view"
)

// TestWirePayloadTable round-trips every payload type of the suite through
// the registered table, and pins what the table refuses: types and tags
// outside it (the by-value forms of the pointer payloads included), nil
// payload pointers, and every truncation of a valid body.
func TestWirePayloadTable(t *testing.T) {
	var r sim.WireReader
	for _, p := range []any{
		nil,
		PartialCP{C: 4},
		FullCP{C: -4, G: 2},
		GoAhead{},
		AreYouAlive{},
		Alive{},
		COrdinary{},
		COrdinary{View: view.Snapshot{Faulty: []bool{false, true}, Point: []int{3, 0}, Round: []int64{8, sim.Forever}},
			Value: COrdinary{Value: PartialCP{C: 1}}},
		&DView{},
		&DView{Phase: 2, S: []uint64{0b1011, 1 << 63}, T: []uint64{0b0100}, Done: true},
		UniformDone{U: 6},
		NaiveReport{Units: 3},
		&Rumor{},
		&Rumor{Done: []uint64{0xfe}},
	} {
		b, err := sim.AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if r.Reset(b); !reflect.DeepEqual(r.Payload(), p) || r.Err() != nil || r.Len() != 0 {
			t.Errorf("%#v does not round-trip: %v, %d bytes left", p, r.Err(), r.Len())
		}
		for cut := 0; cut < len(b); cut++ {
			r.Reset(b[:cut])
			if r.Payload(); r.Err() == nil {
				t.Errorf("%#v: prefix of %d of %d bytes decoded", p, cut, len(b))
			}
		}
	}
	for _, p := range []any{42, struct{}{}, (*DView)(nil), DView{}, (*Rumor)(nil), Rumor{}, COrdinary{Value: 42}} {
		if _, err := sim.AppendPayload(nil, p); !errors.Is(err, sim.ErrUnknownPayload) {
			t.Errorf("%#v: want ErrUnknownPayload, got %v", p, err)
		}
	}
	if r.Reset([]byte{tagRumor + 1}); r.Payload() != nil || r.Err() == nil {
		t.Error("tag past the table decoded")
	}
}
