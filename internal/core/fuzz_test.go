package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// Fuzzing: interpret arbitrary bytes as a crash schedule and check that the
// completion guarantee and single-active invariant hold for every input.
// Each byte triple (pid, trigger, detail) plans one crash; at most t-1
// crashes are kept so a survivor always exists.

func scheduleFromBytes(data []byte, t int, actions int) sim.Adversary {
	var crashes []adversary.Crash
	seen := make(map[int]bool)
	for i := 0; i+2 < len(data) && len(crashes) < t-1; i += 3 {
		pid := int(data[i]) % t
		if seen[pid] {
			continue
		}
		seen[pid] = true
		c := adversary.Crash{PID: pid, KeepWork: data[i+2]&1 == 1}
		if data[i+1]&1 == 0 {
			c.Round = int64(data[i+2] % 64)
		} else {
			c.AtAction = 1 + int(data[i+2])%actions
			deliver := make([]bool, t)
			for k := range deliver {
				deliver[k] = data[i+1]>>(k%8)&1 == 1
			}
			c.Deliver = deliver
		}
		crashes = append(crashes, c)
	}
	return adversary.NewSchedule(crashes...)
}

// fuzzProtocol fuzzes the protocol table's entry name on an (n, t)
// instance, checking the single-active invariant wherever the table
// declares it.
func fuzzProtocol(f *testing.F, name string, n, t int) {
	f.Helper()
	p, _ := LookupProtocol(name)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 5, 1, 0, 9, 2, 1, 3})
	f.Add([]byte{3, 1, 255, 2, 0, 20, 1, 1, 7, 0, 0, 1})
	f.Fuzz(func(t_ *testing.T, data []byte) {
		pr, err := p.Build(n, t, Params{})
		if err != nil {
			t_.Fatal(err)
		}
		opt := RunOptions{Adversary: scheduleFromBytes(data, t, 12)}
		if p.SingleActive {
			opt.MaxActive = 1
		}
		res, err := RunProcs(n, t, pr, opt)
		if err != nil {
			t_.Fatalf("%s: %v", name, err)
		}
		if err := CheckCompletion(res); err != nil {
			t_.Fatalf("%s: %v", name, err)
		}
	})
}

func FuzzProtocolA(f *testing.F) { fuzzProtocol(f, "a", 12, 4) }

func FuzzProtocolB(f *testing.F) { fuzzProtocol(f, "b", 12, 4) }

func FuzzProtocolC(f *testing.F) { fuzzProtocol(f, "c", 8, 4) }

func FuzzProtocolD(f *testing.F) { fuzzProtocol(f, "d", 12, 4) }
