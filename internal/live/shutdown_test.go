package live_test

// Shutdown lifecycle regression tests. The bug these pin: ChanTransport
// sends racing Close used to panic on the freshly closed grant channels —
// a worker yielding during plane teardown, or a late restart firing after
// shutdown, could take the whole process down. The contract now: Close is
// idempotent and concurrency-safe, sends after (or racing) Close are
// defined no-ops, and RecvGrant reports ok=false to parked workers.
// Run with -race: the point is the interleavings, not the assertions.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live"
)

// countSink is a stand-in YieldSink that only counts arrivals.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Arrive(live.YieldFrame) { s.n.Add(1) }

func chanTransports() map[string]func() *live.ChanTransport {
	return map[string]func() *live.ChanTransport{
		"batched": func() *live.ChanTransport { return live.NewChanTransport(live.Latency{}) },
	}
}

// TestChanTransportCloseRace hammers SendGrant/SendYield from many
// goroutines while Close lands concurrently (and repeatedly): no send may
// panic, and every parked RecvGrant must be released with ok=false.
func TestChanTransportCloseRace(t *testing.T) {
	for mode, mk := range chanTransports() {
		mode, mk := mode, mk
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			const n, iters = 8, 200
			for it := 0; it < iters; it++ {
				ct := mk()
				sink := &countSink{}
				ct.Open(n, sink)
				// Workers drain grants until the transport closes under them.
				recv := startReceivers(ct, n)
				var wg sync.WaitGroup
				// Senders race the close from both directions.
				for pid := 0; pid < n; pid++ {
					wg.Add(2)
					go func(pid int) {
						defer wg.Done()
						for r := int64(0); r < 20; r++ {
							ct.SendGrant(pid, live.Grant{Round: r})
						}
					}(pid)
					go func(pid int) {
						defer wg.Done()
						for r := int64(0); r < 20; r++ {
							ct.SendYield(live.YieldFrame{PID: pid, Round: r})
						}
					}(pid)
				}
				// Two concurrent closers: Close must also race itself safely.
				for c := 0; c < 2; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ct.Close()
					}()
				}
				within(t, wg.Wait, func() string { return fmt.Sprintf("iteration %d: senders or closers", it) })
				recv.wait(t)
			}
		})
	}
}

// TestChanTransportSendAfterClose pins the quiescent half of the contract:
// once Close has returned, sends are silent no-ops, receives report closure,
// and closing again changes nothing.
func TestChanTransportSendAfterClose(t *testing.T) {
	for mode, mk := range chanTransports() {
		mode, mk := mode, mk
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			ct := mk()
			sink := &countSink{}
			ct.Open(4, sink)
			ct.Close()
			ct.Close() // idempotent
			for pid := 0; pid < 4; pid++ {
				ct.SendGrant(pid, live.Grant{Round: 1}) // must not panic
				ct.SendYield(live.YieldFrame{PID: pid, Round: 1})
				if _, ok := ct.RecvGrant(pid); ok {
					t.Fatalf("pid %d: RecvGrant ok after Close", pid)
				}
			}
			if got := sink.n.Load(); got != 0 {
				t.Fatalf("%d yields reached the sink after Close", got)
			}
		})
	}
}

// TestChanTransportReopen pins pooled-plane reuse: a closed transport must
// come back to full service on the next Open, whatever n it is given.
func TestChanTransportReopen(t *testing.T) {
	for mode, mk := range chanTransports() {
		mode, mk := mode, mk
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			ct := mk()
			for round, n := range []int{4, 4, 6} { // same n twice, then resized
				sink := &countSink{}
				ct.Open(n, sink)
				done := make(chan live.Grant, 1)
				go func() {
					g, ok := ct.RecvGrant(n - 1)
					if !ok {
						g = live.Grant{Round: -1}
					}
					done <- g
				}()
				ct.SendGrant(n-1, live.Grant{Round: int64(round)})
				if g := <-done; g.Round != int64(round) {
					t.Fatalf("reopen %d: got grant round %d, want %d", round, g.Round, round)
				}
				ct.SendYield(live.YieldFrame{PID: 0})
				if sink.n.Load() != 1 {
					t.Fatalf("reopen %d: yield did not reach the sink", round)
				}
				ct.Close()
			}
		})
	}
}

// receivers is one worker per PID parked in RecvGrant, each logging the
// grants it drains until the transport reports ok=false.
type receivers struct {
	wg       sync.WaitGroup
	returned []atomic.Bool
	got      [][]live.Grant
}

// startReceivers starts the receivers and returns once every one of them
// is about to call RecvGrant for the first time.
func startReceivers(ct *live.ChanTransport, n int) *receivers {
	r := &receivers{returned: make([]atomic.Bool, n), got: make([][]live.Grant, n)}
	var ready sync.WaitGroup
	ready.Add(n)
	r.wg.Add(n)
	for pid := range n {
		go func() {
			defer r.wg.Done()
			ready.Done()
			for {
				g, ok := ct.RecvGrant(pid)
				if !ok {
					break
				}
				r.got[pid] = append(r.got[pid], g)
			}
			r.returned[pid].Store(true)
		}()
	}
	ready.Wait()
	return r
}

// wait blocks until every receiver has been released, failing with the
// PIDs still parked if that takes too long.
func (r *receivers) wait(t *testing.T) {
	t.Helper()
	within(t, r.wg.Wait, func() string {
		var parked []int
		for pid := range r.returned {
			if !r.returned[pid].Load() {
				parked = append(parked, pid)
			}
		}
		return fmt.Sprintf("pids %v parked in RecvGrant", parked)
	})
}

// within runs f and fails the test if f has not returned after 10s, naming
// what is still blocked. No transport operation waits on a timer, so a
// miss is a hang, which would otherwise last until go test's own timeout.
func within(t *testing.T, f func(), stuck func() string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("still blocked after 10s: %s", stuck())
	}
}

// TestChanTransportCloseReleasesParked: Close wakes every receiver parked
// with no grant in flight, and each sees ok=false and no grant.
func TestChanTransportCloseReleasesParked(t *testing.T) {
	t.Parallel()
	const n = 16
	ct := live.NewChanTransport(live.Latency{})
	ct.Open(n, &countSink{})
	r := startReceivers(ct, n)
	ct.Close()
	r.wait(t)
	for pid, got := range r.got {
		if len(got) != 0 {
			t.Errorf("pid %d received %v with no grant sent", pid, got)
		}
	}
}

// TestChanTransportQueuedGrantBeforeClose: a grant queued before Close is
// delivered, and only then does RecvGrant report ok=false.
func TestChanTransportQueuedGrantBeforeClose(t *testing.T) {
	t.Parallel()
	const n = 4
	ct := live.NewChanTransport(live.Latency{})
	ct.Open(n, &countSink{})
	for pid := range n {
		ct.SendGrant(pid, live.Grant{Round: int64(10 + pid)})
	}
	ct.Close()
	for pid := range n {
		if g, ok := ct.RecvGrant(pid); !ok || g.Round != int64(10+pid) {
			t.Fatalf("pid %d: RecvGrant = (round %d, %v), want the queued round %d", pid, g.Round, ok, 10+pid)
		}
		if _, ok := ct.RecvGrant(pid); ok {
			t.Fatalf("pid %d: second RecvGrant ok after Close", pid)
		}
	}
}

// TestChanTransportFullSlotDoesNotBlock: the barrier never has two grants
// outstanding for one process, so a second SendGrant into an undrained
// slot is a caller bug. It must return at once, dropping the grant, and
// Close must still return; the first grant stays the one delivered.
func TestChanTransportFullSlotDoesNotBlock(t *testing.T) {
	t.Parallel()
	ct := live.NewChanTransport(live.Latency{})
	ct.Open(2, &countSink{})
	ct.SendGrant(0, live.Grant{Round: 1})
	within(t, func() { ct.SendGrant(0, live.Grant{Round: 2}) }, func() string {
		return "SendGrant into a full slot"
	})
	within(t, ct.Close, func() string { return "Close after a SendGrant into a full slot" })
	if g, ok := ct.RecvGrant(0); !ok || g.Round != 1 {
		t.Fatalf("RecvGrant = (round %d, %v), want the first grant, round 1", g.Round, ok)
	}
	if _, ok := ct.RecvGrant(0); ok {
		t.Fatal("the dropped grant was delivered")
	}
}

// TestChanTransportCloseBeforeOpen: Close on a transport never opened is a
// no-op, and the first Open serves normally.
func TestChanTransportCloseBeforeOpen(t *testing.T) {
	t.Parallel()
	ct := live.NewChanTransport(live.Latency{})
	ct.Close()
	ct.Close()
	sink := &countSink{}
	ct.Open(2, sink)
	ct.SendGrant(1, live.Grant{Round: 3})
	if g, ok := ct.RecvGrant(1); !ok || g.Round != 3 {
		t.Fatalf("RecvGrant = (round %d, %v), want round 3", g.Round, ok)
	}
	ct.SendYield(live.YieldFrame{PID: 1, Round: 3})
	if sink.n.Load() != 1 {
		t.Fatal("yield did not reach the sink")
	}
	ct.Close()
}

// TestChanTransportReopenReleasesWorkers: Open after Close serves again at
// the same n, cycle after cycle, and every cycle's workers exit: the
// goroutine count returns to where it started. Not parallel, since it
// counts the whole process's goroutines.
func TestChanTransportReopenReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	const n, cycles = 8, 3
	ct := live.NewChanTransport(live.Latency{})
	for cycle := range cycles {
		ct.Open(n, &countSink{})
		r := startReceivers(ct, n)
		for pid := range n {
			ct.SendGrant(pid, live.Grant{Round: int64(cycle)})
		}
		ct.Close()
		r.wait(t)
		for pid, got := range r.got {
			if len(got) != 1 || got[0].Round != int64(cycle) {
				t.Fatalf("cycle %d pid %d: received %v, want one grant of round %d", cycle, pid, got, cycle)
			}
		}
	}
	// The workers have returned from RecvGrant; their goroutines may still
	// be on the way out.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d cycles, %d before", runtime.NumGoroutine(), cycles, base)
		}
		runtime.Gosched()
	}
}
