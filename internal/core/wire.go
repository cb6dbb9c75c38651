package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
	"repro/internal/view"
)

// The live plane's wire transport carries sim.Message payloads as a one-byte
// tag followed by a per-type body (sim.PayloadCodec). This is the complete
// payload alphabet of the DHW92 suite: protocols A/B/C (checkpoint exchange
// and liveness probes), protocol D (*DView gossip — the view travels by
// pointer), the baseline protocols' reports and the gossip successor's
// *Rumor rumors (by pointer too). Tag values are part of the wire format: append only, never renumber
// (tag 0 is sim's nil payload). A new payload type that should cross the wire
// gets the next tag and a case in each of the two switches below.
const (
	tagPartialCP byte = iota + 1
	tagFullCP
	tagGoAhead
	tagAreYouAlive
	tagAlive
	tagCOrdinary
	tagDView
	tagUniformDone
	tagNaiveReport
	tagRumor
)

func init() {
	sim.RegisterPayloadCodec(sim.PayloadCodec{Append: appendPayload, Read: readPayload})
}

func appendPayload(b []byte, payload any) ([]byte, error) {
	switch m := payload.(type) {
	case PartialCP:
		return binary.AppendVarint(append(b, tagPartialCP), int64(m.C)), nil
	case FullCP:
		b = binary.AppendVarint(append(b, tagFullCP), int64(m.C))
		return binary.AppendVarint(b, int64(m.G)), nil
	case GoAhead:
		return append(b, tagGoAhead), nil
	case AreYouAlive:
		return append(b, tagAreYouAlive), nil
	case Alive:
		return append(b, tagAlive), nil
	case COrdinary:
		b = append(b, tagCOrdinary)
		b = binary.AppendUvarint(b, uint64(len(m.View.Faulty)))
		for _, f := range m.View.Faulty {
			b = sim.AppendBool(b, f)
		}
		b = binary.AppendUvarint(b, uint64(len(m.View.Point)))
		for _, p := range m.View.Point {
			b = binary.AppendVarint(b, int64(p))
		}
		b = binary.AppendUvarint(b, uint64(len(m.View.Round)))
		for _, r := range m.View.Round {
			b = binary.AppendVarint(b, r)
		}
		return sim.AppendPayload(b, m.Value)
	case *DView:
		if m == nil {
			break
		}
		b = binary.AppendVarint(append(b, tagDView), int64(m.Phase))
		b = sim.AppendWords(b, m.S)
		b = sim.AppendWords(b, m.T)
		return sim.AppendBool(b, m.Done), nil
	case UniformDone:
		return binary.AppendVarint(append(b, tagUniformDone), int64(m.U)), nil
	case NaiveReport:
		return binary.AppendVarint(append(b, tagNaiveReport), int64(m.Units)), nil
	case *Rumor:
		if m == nil {
			break
		}
		return sim.AppendWords(append(b, tagRumor), m.Done), nil
	}
	return b, fmt.Errorf("%T: %w", payload, sim.ErrUnknownPayload)
}

func readPayload(tag byte, r *sim.WireReader) any {
	switch tag {
	case tagPartialCP:
		return PartialCP{C: r.Int()}
	case tagFullCP:
		return FullCP{C: r.Int(), G: r.Int()}
	case tagGoAhead:
		return GoAhead{}
	case tagAreYouAlive:
		return AreYouAlive{}
	case tagAlive:
		return Alive{}
	case tagCOrdinary:
		var s view.Snapshot
		if n := r.Count(1); n > 0 {
			s.Faulty = make([]bool, n)
			for i := range s.Faulty {
				s.Faulty[i] = r.Bool()
			}
		}
		if n := r.Count(1); n > 0 {
			s.Point = make([]int, n)
			for i := range s.Point {
				s.Point[i] = r.Int()
			}
		}
		if n := r.Count(1); n > 0 {
			s.Round = make([]int64, n)
			for i := range s.Round {
				s.Round[i] = r.Varint()
			}
		}
		return COrdinary{View: s, Value: r.Payload()}
	case tagDView:
		return &DView{Phase: r.Int(), S: r.Words(), T: r.Words(), Done: r.Bool()}
	case tagUniformDone:
		return UniformDone{U: r.Int()}
	case tagNaiveReport:
		return NaiveReport{Units: r.Int()}
	case tagRumor:
		return &Rumor{Done: r.Words()}
	}
	r.Fail(fmt.Errorf("payload tag %d unknown", tag))
	return nil
}
