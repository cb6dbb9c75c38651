package live_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sim"
)

// The asynchronous plane runs core's Protocol A Steppers unchanged, with the
// failure detector standing in for the deadlines. Every process takes over
// knowing exactly the messages its predecessors sent, stamped with the same
// clocks, so a crash plan triggered by action gives the engine's work,
// messages, crashes and survivors whatever the delays do.

func protocolA(t *testing.T, n, tt int) func(int) sim.Stepper {
	t.Helper()
	st, err := core.SteppersFor(core.ProtocolAProcs(core.ABConfig{N: n, T: tt}))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runAsyncA(t *testing.T, n, tt int, delay time.Duration, seed int64, plan []adversary.Crash) sim.Result {
	t.Helper()
	res, err := live.RunAsync(n, tt, delay, seed, plan, protocolA(t, n, tt))
	if err != nil {
		t.Fatalf("%d×%d: %v", n, tt, err)
	}
	return res
}

// crashFirst crashes PIDs 0..k−1, each at its at-th action, keeping that
// action's unit.
func crashFirst(k, at int) []adversary.Crash {
	plan := make([]adversary.Crash, k)
	for pid := range plan {
		plan[pid] = adversary.Crash{PID: pid, AtAction: at, KeepWork: true}
	}
	return plan
}

func TestAsyncMatchesEngine(t *testing.T) {
	type planCase struct {
		n, t int
		name string
		plan []adversary.Crash
	}
	var cases []planCase
	// F6's four shapes and a non-square t.
	for _, s := range []struct{ n, t, kills int }{{64, 16, 0}, {64, 16, 8}, {64, 16, 15}, {128, 16, 10}, {100, 9, 8}} {
		for _, at := range []int{2, 3, 5, 7} {
			cases = append(cases, planCase{s.n, s.t, fmt.Sprintf("first-%d@a%d", s.kills, at), crashFirst(s.kills, at)})
		}
	}
	// A crash mid-broadcast: PID 0's fifth action is its first partial
	// checkpoint, to its three group peers, and reaches only the first; PID 1
	// then dies in its takeover's chore broadcast after reaching two.
	cases = append(cases, planCase{64, 16, "mid-broadcast", []adversary.Crash{
		{PID: 0, AtAction: 5, Deliver: []bool{true}},
		{PID: 1, AtAction: 1, Deliver: []bool{true, true}},
		{PID: 2, AtAction: 4},
	}})

	for _, c := range cases {
		want, err := core.RunSteppers(c.n, c.t, protocolA(t, c.n, c.t), core.RunOptions{
			Adversary: adversary.NewSchedule(c.plan...), MaxActive: 1,
		})
		if err != nil {
			t.Fatalf("%d×%d %s: engine: %v", c.n, c.t, c.name, err)
		}
		if want.Crashes != len(c.plan) || !want.Complete() {
			t.Fatalf("%d×%d %s: engine crashed %d of %d planned, complete %v",
				c.n, c.t, c.name, want.Crashes, len(c.plan), want.Complete())
		}
		for _, delay := range []time.Duration{0, 50 * time.Microsecond} {
			got := runAsyncA(t, c.n, c.t, delay, int64(c.n+len(c.plan)), c.plan)
			if got.WorkTotal != want.WorkTotal || got.WorkDistinct != want.WorkDistinct ||
				got.Messages != want.Messages || got.Crashes != want.Crashes ||
				got.Survivors != want.Survivors || !got.Complete() {
				t.Errorf("%d×%d %s delay %v: async work %d/%d, messages %d, crashes %d, survivors %d, completed %d; "+
					"engine %d/%d, %d, %d, %d",
					c.n, c.t, c.name, delay, got.WorkTotal, got.WorkDistinct, got.Messages, got.Crashes,
					got.Survivors, got.CompletedRound,
					want.WorkTotal, want.WorkDistinct, want.Messages, want.Crashes, want.Survivors)
			}
		}
	}
}

func TestAsyncFailureFree(t *testing.T) {
	// Only worker 0 acts, and every termination indication lands before
	// the detector reports its sender: exactly n units, everyone halts.
	n, tt := 64, 16
	res := runAsyncA(t, n, tt, 0, 1, nil)
	if !res.Complete() || res.WorkDistinct != n || res.WorkTotal != int64(n) {
		t.Fatalf("work = %d, distinct %d, want exactly n = %d", res.WorkTotal, res.WorkDistinct, n)
	}
	if res.Survivors != tt || res.Crashes != 0 {
		t.Fatalf("survivors %d, crashes %d; want %d, 0", res.Survivors, res.Crashes, tt)
	}
}

func TestAsyncFailureFreeDelayed(t *testing.T) {
	// Delays reorder arrivals but never let a detector report overtake
	// the retiree's checkpoints, so delays change nothing.
	n, tt := 64, 16
	res := runAsyncA(t, n, tt, 200*time.Microsecond, 1, nil)
	if !res.Complete() || res.WorkTotal != int64(n) {
		t.Fatalf("work = %d, complete %v; want exactly n = %d", res.WorkTotal, res.Complete(), n)
	}
}

func TestAsyncCrashCascade(t *testing.T) {
	// Each worker dies as it starts its second unit, up to t−1 failures:
	// work-optimality, O(n + t) with the paper's constant 3 plus the
	// crashed workers' partial subchunks.
	n, tt := 64, 16
	res := runAsyncA(t, n, tt, 100*time.Microsecond, 2, crashFirst(tt-1, 2))
	if !res.Complete() || res.Crashes != tt-1 || res.Survivors != 1 {
		t.Fatalf("complete %v, crashes %d, survivors %d", res.Complete(), res.Crashes, res.Survivors)
	}
	if res.WorkTotal > int64(3*n+tt) {
		t.Fatalf("work = %d, want ≤ 3n + t = %d", res.WorkTotal, 3*n+tt)
	}
}

func TestAsyncAllButOneCrashBeforeStart(t *testing.T) {
	// Every worker but the last dies at its first action, keeping nothing
	// and sending nothing: the survivor hears nothing and does it all.
	n, tt := 32, 8
	plan := make([]adversary.Crash, tt-1)
	for pid := range plan {
		plan[pid] = adversary.Crash{PID: pid, AtAction: 1}
	}
	res := runAsyncA(t, n, tt, 50*time.Microsecond, 3, plan)
	if !res.Complete() || res.WorkTotal != int64(n) || res.Survivors != 1 {
		t.Fatalf("complete %v, work %d, survivors %d", res.Complete(), res.WorkTotal, res.Survivors)
	}
}

func TestAsyncMessageBound(t *testing.T) {
	// Messages stay O(t√t) in the failure-free case (only checkpoints
	// travel).
	n, tt := 64, 16
	res := runAsyncA(t, n, tt, 0, 5, nil)
	if res.Messages > int64(9*tt*4) { // 9·t·√t with √16 = 4
		t.Fatalf("messages = %d > 9t√t", res.Messages)
	}
}

func TestAsyncRepeatedRuns(t *testing.T) {
	// Many seeds and delays for ordering robustness (run with -race).
	for seed := int64(0); seed < 8; seed++ {
		var plan []adversary.Crash
		if seed%2 == 0 {
			plan = crashFirst(1, 1+int(seed))
		}
		res := runAsyncA(t, 16, 4, 30*time.Microsecond, seed, plan)
		if !res.Complete() || res.Messages == 0 {
			t.Fatalf("seed %d: complete %v, messages %d", seed, res.Complete(), res.Messages)
		}
	}
}

func TestAsyncRejectsPlan(t *testing.T) {
	for _, c := range []struct {
		plan []adversary.Crash
		want string
	}{
		{[]adversary.Crash{{PID: 4, AtAction: 1}}, "pid 4 of 4"},
		{[]adversary.Crash{{PID: -1, AtAction: 1}}, "pid -1 of 4"},
		{[]adversary.Crash{{PID: 1, Round: 3}}, "no action trigger"},
		{[]adversary.Crash{{PID: 1, AtAction: 2, RestartAt: 9}}, "no restarts"},
	} {
		_, err := live.RunAsync(16, 4, 0, 1, c.plan, protocolA(t, 16, 4))
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("plan %+v: err %v, want one line naming %q", c.plan, err, c.want)
		}
	}
}

// overlap makes two processes active at once: process 0 flags itself and
// idles until process 1, woken by its message, flags itself and answers.
type overlap struct{ sent bool }

func (o *overlap) Step(p *sim.Proc) sim.Yield {
	peer := 1 - p.ID()
	switch {
	case p.ID() == 1 && !p.HasMail() && !o.sent:
		return sim.Yield{Kind: sim.YieldSleep, Until: sim.Forever}
	case !o.sent:
		o.sent = true
		p.SetActive(true)
		return sim.Yield{Kind: sim.YieldAction, Action: sim.Action{Sends: []sim.Send{{To: peer}}}}
	case p.ID() == 0 && !p.HasMail():
		return sim.Yield{Kind: sim.YieldAction}
	}
	return sim.Yield{Kind: sim.YieldHalt}
}

func TestAsyncActiveInvariant(t *testing.T) {
	res, err := live.RunAsync(4, 2, 0, 1, nil, func(int) sim.Stepper { return &overlap{} })
	if err == nil || !strings.Contains(err.Error(), "2 active processes (max 1)") {
		t.Fatalf("err %v, want the at-most-one-active invariant", err)
	}
	if res.Survivors != 2 || res.Messages != 2 {
		t.Fatalf("survivors %d, messages %d; want the run finished", res.Survivors, res.Messages)
	}
}

func TestAsyncDetectorSoundness(t *testing.T) {
	d := live.NewDetector(4)
	if d.AllRetiredBelow(1) {
		t.Fatal("process 0 not retired yet")
	}
	d.MarkRetired(0)
	if !d.AllRetiredBelow(1) || d.AllRetiredBelow(2) {
		t.Fatal("AllRetiredBelow wrong")
	}
	sub := d.Subscribe()
	d.MarkRetired(1)
	select {
	case <-sub:
	default:
		t.Fatal("no retirement notification")
	}
}

func TestAsyncNetworkDelivery(t *testing.T) {
	net := live.NewNetwork(2, 0, 4)
	net.Send(sim.Message{From: 0, To: 1, SentAt: 7, Payload: "x"})
	select {
	case <-net.Ready(1):
	default:
		t.Fatal("no delivery signal")
	}
	mail := net.Take(1)
	if len(mail) != 1 || mail[0].Payload != "x" || mail[0].From != 0 || mail[0].SentAt != 7 {
		t.Fatalf("mail = %+v", mail)
	}
	if net.Sent() != 1 {
		t.Fatalf("sent = %d", net.Sent())
	}
	// Out-of-range destinations vanish silently.
	net.Send(sim.Message{From: 0, To: 9, Payload: "y"})
	net.Close()
	if net.Sent() != 1 || len(net.Take(1)) != 0 {
		t.Fatalf("sent = %d after an out-of-range send", net.Sent())
	}
}

func TestAsyncFlushOrdering(t *testing.T) {
	// FlushFrom returns only once every delayed message of its sender has
	// landed, which is what lets the detector's report follow them.
	const sends = 50
	net := live.NewNetwork(3, 300*time.Microsecond, 9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a second sender whose traffic FlushFrom(0) must not wait on
		defer wg.Done()
		for i := 0; i < sends; i++ {
			net.Send(sim.Message{From: 2, To: 1, Payload: -1})
		}
	}()
	for i := 0; i < sends; i++ {
		net.Send(sim.Message{From: 0, To: 1, Payload: i})
	}
	net.FlushFrom(0)
	got := 0
	for _, m := range net.Take(1) {
		if m.From == 0 {
			got++
		}
	}
	if got != sends {
		t.Fatalf("%d of sender 0's %d messages landed before FlushFrom returned", got, sends)
	}
	wg.Wait()
	net.Close()
}
