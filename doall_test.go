package doall

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

func TestRunAllProtocolsFailureFree(t *testing.T) {
	for _, p := range []Protocol{
		ProtocolA, ProtocolB, ProtocolD, Trivial, SingleCheckpoint, NaiveSpread,
	} {
		res, err := Run(Config{Units: 32, Workers: 8, Protocol: p, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Complete {
			t.Fatalf("%v: incomplete", p)
		}
		if res.WorkDistinct != 32 {
			t.Fatalf("%v: distinct = %d", p, res.WorkDistinct)
		}
	}
	// Protocol C variants need small n + t (exponential deadlines).
	for _, p := range []Protocol{ProtocolC, ProtocolCLowMsg} {
		res, err := Run(Config{Units: 16, Workers: 4, Protocol: p, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Complete {
			t.Fatalf("%v: incomplete", p)
		}
	}
}

func TestRunWithFailures(t *testing.T) {
	for _, f := range []Failures{
		NoFailures(),
		RandomFailures(0.05, 7, 42),
		CascadeFailures(4, 7),
		ScheduledFailures(Crash{Process: 0, Round: 3}),
		CombinedFailures(
			ScheduledFailures(Crash{Process: 1, Round: 5}),
			CascadeFailures(8, 2),
		),
	} {
		res, err := Run(Config{
			Units: 32, Workers: 8, Protocol: ProtocolB,
			Failures: f, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Survivors > 0 && !res.Complete {
			t.Fatalf("guarantee violated: %+v", res)
		}
	}
}

func TestRunObserverDrivesWorkload(t *testing.T) {
	valves := workload.NewValves(16)
	res, err := Run(Config{
		Units: 16, Workers: 4, Protocol: ProtocolB,
		Failures: CascadeFailures(4, 3),
		Observer: func(_, unit int) { valves.Do(unit) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || !valves.AllClosed() {
		t.Fatal("valves not all closed")
	}
}

func TestRunUniformCheckpointK(t *testing.T) {
	res, err := Run(Config{
		Units: 32, Workers: 8, Protocol: UniformCheckpoint, CheckpointK: 4,
		Failures: CascadeFailures(8, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	if _, err := Run(Config{Units: 8, Workers: 2, Protocol: UniformCheckpoint}); err == nil {
		t.Fatal("want error without CheckpointK")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Units: 4, Workers: 0, Protocol: ProtocolA}); err == nil {
		t.Fatal("want error for Workers=0")
	}
	if _, err := Run(Config{Units: -1, Workers: 2, Protocol: ProtocolA}); err == nil {
		t.Fatal("want error for Units<0")
	}
	if _, err := Run(Config{Units: 4, Workers: 2}); err == nil {
		t.Fatal("want error for missing protocol")
	}
}

func TestResultEffort(t *testing.T) {
	res, err := Run(Config{Units: 16, Workers: 4, Protocol: ProtocolA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Effort() != res.Work+res.Messages {
		t.Fatal("effort mismatch")
	}
	if len(res.Workers) != 4 {
		t.Fatalf("workers = %d", len(res.Workers))
	}
	if res.Workers[0].Status != "terminated" {
		t.Fatalf("worker 0 status = %q", res.Workers[0].Status)
	}
}

func TestProtocolStrings(t *testing.T) {
	want := []string{
		"Protocol(0)", "A", "B", "C", "C-lowmsg", "D", "trivial", "single-checkpoint",
		"uniform-checkpoint", "naive-spread", "gossip", "Protocol(11)",
	}
	for p, name := range want {
		if got := Protocol(p).String(); got != name {
			t.Errorf("Protocol(%d).String() = %q, want %q", p, got, name)
		}
	}
	for p := Protocol(0); p <= Gossip+1; p++ {
		single := p == ProtocolA || p == ProtocolB || p == ProtocolC || p == ProtocolCLowMsg ||
			p == SingleCheckpoint || p == UniformCheckpoint || p == NaiveSpread
		if p.SingleActive() != single {
			t.Errorf("%v.SingleActive() = %v", p, p.SingleActive())
		}
	}
}

// TestObserverMatchesResult is the Observer's oracle: on every protocol
// under every failure kind, setting an Observer leaves the Result unchanged,
// and the Observer sees exactly the work the Result counts, once per unit
// with multiplicity.
func TestObserverMatchesResult(t *testing.T) {
	failures := []struct {
		name string
		f    func() Failures
	}{
		{"none", NoFailures},
		{"cascade", func() Failures { return CascadeFailures(3, 3) }},
		{"random", func() Failures { return RandomFailures(0.05, 3, 7) }},
		{"crash-keep", func() Failures {
			return ScheduledFailures(Crash{Process: 0, AtAction: 3, KeepWork: true})
		}},
		{"crash-restart", func() Failures {
			return ScheduledFailures(Crash{Process: 0, Round: 3, RestartAt: 9})
		}},
		{"loss", func() Failures { return LossyFailures(0.2, 6, 3) }},
		{"slowdown", func() Failures { return SlowdownFailures(0, 2, 3) }},
		{"combined", func() Failures {
			return CombinedFailures(
				RandomFailures(0.05, 2, 11),
				ScheduledFailures(Crash{Process: 1, AtAction: 2, KeepWork: true, RestartAt: 12}),
				LossyFailures(0.1, 3, 5),
			)
		}},
	}
	for p := ProtocolA; p <= Gossip; p++ {
		for _, fc := range failures {
			cfg := Config{Units: 16, Workers: 4, Protocol: p, CheckpointK: 4, Failures: fc.f()}
			plain, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v %s: %v", p, fc.name, err)
			}
			calls, seen := 0, map[int]bool{}
			cfg.Failures = fc.f()
			cfg.Observer = func(_, unit int) {
				calls++
				seen[unit] = true
			}
			observed, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v %s: %v", p, fc.name, err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Errorf("%v %s: Result without Observer %+v, with %+v", p, fc.name, plain, observed)
			}
			if int64(calls) != observed.Work || len(seen) != observed.WorkDistinct {
				t.Errorf("%v %s: Observer saw %d units (%d distinct), Result has %d (%d distinct)",
					p, fc.name, calls, len(seen), observed.Work, observed.WorkDistinct)
			}
		}
	}
}

func TestRunAgreementPublicAPI(t *testing.T) {
	res, err := RunAgreement(AgreementConfig{
		Processes: 12, Faults: 3, Value: 9, Protocol: ProtocolB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 9 {
		t.Fatalf("decided %d, want 9", res.Value)
	}
	for pid, d := range res.Decisions {
		if d != 9 {
			t.Fatalf("process %d decided %d", pid, d)
		}
	}
	// Under a crashing general, agreement still holds.
	res2, err := RunAgreement(AgreementConfig{
		Processes: 12, Faults: 3, Value: 9, Protocol: ProtocolB,
		Failures: ScheduledFailures(Crash{Process: 0, AtAction: 1, Deliver: []bool{true}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value != 0 && res2.Value != 9 {
		t.Fatalf("decided %d", res2.Value)
	}
}
