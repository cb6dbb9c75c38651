package explore

import (
	"reflect"
	"testing"
)

// vectorFromBytes decodes arbitrary bytes into a valid decision vector for
// a t-process instance: 5-byte groups (victim, flags, trigger, d0, d1),
// duplicate victims skipped, at most maxCrashes choices kept. Delivery
// prefixes may deliberately exceed the send list and bitmasks may set high
// bits: the over-delivery paths are part of the fuzzed surface.
func vectorFromBytes(data []byte, t, maxCrashes int) Vector {
	var vec Vector
	seen := make(map[int]bool)
	for i := 0; i+4 < len(data) && len(vec) < maxCrashes; i += 5 {
		victim := int(data[i]) % t
		if seen[victim] {
			continue
		}
		seen[victim] = true
		flags := data[i+1]
		c := Choice{Victim: victim}
		if flags&1 == 1 {
			c.AtAction = 1 + int(data[i+2])%64
			c.KeepWork = flags&2 != 0
			if flags&4 != 0 {
				c.Bits = true
				c.Mask = uint64(data[i+3]) | uint64(data[i+4])<<8
			} else {
				c.Prefix = int(data[i+3]) % (t + 2)
			}
		} else {
			c.Round = int64(data[i+2]) % 64
		}
		vec = append(vec, c)
	}
	return vec.Canonical()
}

// encodeVector is vectorFromBytes's inverse for in-range vectors, used to
// seed the fuzz corpus with schedules the worst-case searcher found.
// Triggers past the decodable range (AtAction > 64, Round > 63) are
// clamped to its edge rather than wrapped, so an out-of-range worst
// schedule seeds a near neighbor instead of silently becoming an
// unrelated early crash.
func encodeVector(vec Vector) []byte {
	var out []byte
	for _, c := range vec {
		b := [5]byte{byte(c.Victim)}
		if c.AtAction > 0 {
			b[1] = 1
			if c.KeepWork {
				b[1] |= 2
			}
			if c.Bits {
				b[1] |= 4
				b[3] = byte(c.Mask)
				b[4] = byte(c.Mask >> 8)
			} else {
				b[3] = byte(c.Prefix)
			}
			b[2] = byte(min(c.AtAction, 64) - 1)
		} else {
			b[2] = byte(min(c.Round, 63))
		}
		out = append(out, b[:]...)
	}
	return out
}

// FuzzScheduleReplay drives arbitrary decision vectors through the
// universal adversary and asserts that replaying the same vector yields
// reflect.DeepEqual results — determinism under arbitrary schedules, on
// fresh protocol state and pooled engines both times — and that every such
// schedule certifies (completion guarantee, invariants, bounds). Each
// vector is also replayed on a harness whose adversary and rewound bodies
// last replayed a different vector (the input rotated), which must give a
// fresh Vector.Adversary run's exact Result.
func FuzzScheduleReplay(f *testing.F) {
	mkTargets := func() []Target {
		b, err := NewTarget("b", 10, 4, 3)
		if err != nil {
			f.Fatal(err)
		}
		d, err := NewTarget("d", 8, 4, 3)
		if err != nil {
			f.Fatal(err)
		}
		return []Target{b, d}
	}
	targets := mkTargets()

	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 0})
	f.Add([]byte{0, 3, 4, 1, 0, 1, 0, 5, 0, 0})
	f.Add([]byte{2, 7, 9, 0xff, 0x3, 0, 1, 63, 9, 0, 1, 0, 0, 0, 0})
	// Seed the corpus with the worst schedules the searcher finds: the
	// highest-effort executions are where replay divergence would hide.
	for _, tg := range targets {
		sr, err := tg.Search(SearchOptions{Seed: 11, Budget: 300, MaxPrefix: -1})
		if err != nil {
			f.Fatal(err)
		}
		if len(sr.BestVector) > 0 {
			f.Add(encodeVector(sr.BestVector))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			vec := vectorFromBytes(data, tg.T, tg.MaxCrashes)
			first := tg.Certify(vec)
			if len(first.Violations) != 0 {
				t.Fatalf("%s schedule %s: %v", tg.Protocol, vec, first.Violations)
			}
			again := tg.Certify(vec)
			if !reflect.DeepEqual(first.Result, again.Result) {
				t.Fatalf("%s schedule %s: replay diverged:\n%+v\nvs\n%+v",
					tg.Protocol, vec, first.Result, again.Result)
			}
			half := len(data) / 2
			rotated := append(append([]byte(nil), data[half:]...), data[:half]...)
			checkReusedReplay(t, tg, vectorFromBytes(rotated, tg.T, tg.MaxCrashes), vec)
		}
	})
}

// faultVectorFromBytes decodes arbitrary bytes into a valid decision vector
// over the FULL fault alphabet for a t-process instance: 6-byte groups
// (victim, kind, trigger, d0, d1, d2), kind selecting round crash (with
// optional restart), action crash (keep/lose, prefix or mask delivery,
// optional restart), send omission, slowdown or message drop. Duplicate
// victims are skipped and at most maxChoices choices are kept. Delivery
// selections may exceed the send list: over-delivery is fuzzed surface.
func faultVectorFromBytes(data []byte, t, maxChoices int) Vector {
	var vec Vector
	seen := make(map[int]bool)
	for i := 0; i+5 < len(data) && len(vec) < maxChoices; i += 6 {
		victim := int(data[i]) % t
		if seen[victim] {
			continue
		}
		seen[victim] = true
		trigger, d0, d1, d2 := data[i+2], data[i+3], data[i+4], data[i+5]
		c := Choice{Victim: victim}
		switch data[i+1] % 5 {
		case 0: // round crash, optionally revived
			c.Round = int64(trigger) % 64
			if d0&1 == 1 {
				c.RestartAt = c.Round + 1 + int64(d1%8)
			}
		case 1: // action crash
			c.AtAction = 1 + int(trigger)%64
			c.KeepWork = d0&1 != 0
			if d0&2 != 0 {
				c.Bits, c.Mask = true, uint64(d1)
			} else {
				c.Prefix = int(d1) % (t + 2)
			}
			if d0&4 != 0 {
				c.RestartAt = 1 + int64(d2)%64
			}
		case 2: // send omission
			c.AtAction = 1 + int(trigger)%64
			c.Omit = true
			if d0&2 != 0 {
				c.Bits, c.Mask = true, uint64(d1)
			} else {
				c.Prefix = int(d1) % (t + 2)
			}
		case 3: // slowdown
			c.Round = int64(trigger) % 64
			c.Slow = 1 + int(d0)%6
		case 4: // message drop
			c.DropNth = 1 + int(trigger)%64
		}
		vec = append(vec, c)
	}
	if len(vec) == 0 {
		return nil
	}
	return vec.Canonical()
}

// encodeFaultVector is faultVectorFromBytes's inverse for in-range vectors,
// used to seed the fuzz corpus with searcher-found schedules. Out-of-range
// triggers and masks clamp to the decodable edge.
func encodeFaultVector(vec Vector) []byte {
	var out []byte
	for _, c := range vec {
		b := [6]byte{byte(c.Victim)}
		switch {
		case c.DropNth > 0:
			b[1], b[2] = 4, byte(min(c.DropNth, 64)-1)
		case c.Slow > 0:
			b[1], b[2], b[3] = 3, byte(min(c.Round, 63)), byte(min(c.Slow, 6)-1)
		case c.Omit:
			b[1], b[2] = 2, byte(min(c.AtAction, 64)-1)
			if c.Bits {
				b[3], b[4] = 2, byte(min(c.Mask, 0xff))
			} else {
				b[4] = byte(c.Prefix)
			}
		case c.AtAction > 0:
			b[1], b[2] = 1, byte(min(c.AtAction, 64)-1)
			if c.KeepWork {
				b[3] |= 1
			}
			if c.Bits {
				b[3] |= 2
				b[4] = byte(min(c.Mask, 0xff))
			} else {
				b[4] = byte(c.Prefix)
			}
			if c.RestartAt > 0 {
				b[3] |= 4
				b[5] = byte(min(c.RestartAt, 64) - 1)
			}
		default:
			b[2] = byte(min(c.Round, 63))
			if c.RestartAt > 0 {
				b[3], b[4] = 1, byte(min(c.RestartAt-c.Round-1, 7))
			}
		}
		out = append(out, b[:]...)
	}
	return out
}

// FuzzFaultGrammar drives arbitrary full-alphabet decision vectors through
// the grammar and the certifier: every decoded vector must validate, must
// survive a String → ParseVector round trip exactly, and must replay
// deterministically — two certifications of the same schedule, on fresh
// protocol state and pooled engines, must be reflect.DeepEqual. Violations
// are allowed (slowdowns legitimately break round bounds, revived processes
// legitimately break Protocol B's single-active invariant — that breakage
// is measured elsewhere); non-determinism is not.
func FuzzFaultGrammar(f *testing.F) {
	mkTarget := func(proto string, n, t, f_ int) Target {
		tg, err := NewTarget(proto, n, t, f_)
		if err != nil {
			f.Fatal(err)
		}
		return tg
	}
	targets := []Target{mkTarget("a", 8, 3, 2), mkTarget("b", 10, 4, 3)}

	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 1, 3, 0})                   // round crash + restart
	f.Add([]byte{0, 1, 4, 5, 1, 9, 1, 2, 6, 0, 1, 0}) // crash+restart, omission
	f.Add([]byte{1, 3, 0, 2, 0, 0, 2, 4, 2, 0, 0, 0}) // slowdown, drop
	f.Add([]byte{0, 2, 3, 2, 0xff, 0, 1, 0, 9, 1, 7, 0, 2, 4, 63, 0, 0, 0})
	// Seed with the searcher's worst crash schedules: the highest-effort
	// executions are where replay divergence would hide.
	for _, tg := range targets {
		sr, err := tg.Search(SearchOptions{Seed: 11, Budget: 300, MaxPrefix: -1})
		if err != nil {
			f.Fatal(err)
		}
		if len(sr.BestVector) > 0 {
			f.Add(encodeFaultVector(sr.BestVector))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			vec := faultVectorFromBytes(data, tg.T, tg.T-1)
			if err := vec.Validate(); err != nil {
				t.Fatalf("decoded invalid vector %+v: %v", vec, err)
			}
			parsed, err := ParseVector(vec.String())
			if err != nil {
				t.Fatalf("ParseVector(%q): %v", vec.String(), err)
			}
			if !reflect.DeepEqual(parsed, vec) {
				t.Fatalf("grammar round trip of %q:\n%+v\nvs\n%+v", vec.String(), parsed, vec)
			}
			first := tg.Certify(vec)
			again := tg.Certify(vec)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s schedule %s: replay diverged:\n%+v\nvs\n%+v",
					tg.Protocol, vec, first, again)
			}
		}
	})
}

// TestEncodeFaultVectorRoundTrip pins that full-alphabet vectors survive the
// corpus encoding, so fuzz seeds replay the schedules they were built from.
func TestEncodeFaultVectorRoundTrip(t *testing.T) {
	vec := Vector{
		{Victim: 0, Round: 2, RestartAt: 5},
		{Victim: 1, AtAction: 3, KeepWork: true, Prefix: 2, RestartAt: 9},
		{Victim: 2, AtAction: 1, Omit: true, Bits: true, Mask: 0x6},
	}.Canonical()
	if got := faultVectorFromBytes(encodeFaultVector(vec), 4, 3); !reflect.DeepEqual(got, vec) {
		t.Fatalf("round trip:\n%v\nvs\n%v", got, vec)
	}
	vec2 := Vector{
		{Victim: 0, Round: 4, Slow: 3},
		{Victim: 3, DropNth: 7},
	}.Canonical()
	if got := faultVectorFromBytes(encodeFaultVector(vec2), 4, 3); !reflect.DeepEqual(got, vec2) {
		t.Fatalf("round trip:\n%v\nvs\n%v", got, vec2)
	}
}

// TestEncodeVectorRoundTrip pins that searcher-found vectors survive the
// corpus encoding (so the fuzz seeds actually replay them), and that
// out-of-range triggers clamp to the decodable edge instead of wrapping
// into unrelated schedules.
func TestEncodeVectorRoundTrip(t *testing.T) {
	vec := Vector{
		{Victim: 1, AtAction: 7, KeepWork: true, Prefix: 2},
		{Victim: 2, Round: 9},
		{Victim: 3, AtAction: 3, Bits: true, Mask: 0x1ff},
	}.Canonical()
	got := vectorFromBytes(encodeVector(vec), 4, 3)
	if !reflect.DeepEqual(got, vec) {
		t.Fatalf("round trip:\n%v\nvs\n%v", got, vec)
	}

	wide := Vector{{Victim: 0, AtAction: 200, KeepWork: true}, {Victim: 1, Round: 99}}
	want := Vector{{Victim: 0, AtAction: 64, KeepWork: true}, {Victim: 1, Round: 63}}
	if got := vectorFromBytes(encodeVector(wide), 4, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("clamping:\n%v\nvs\n%v", got, want)
	}
}
