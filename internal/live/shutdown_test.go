package live_test

// Shutdown lifecycle regression tests. The bug these pin: ChanTransport
// sends racing Close used to panic on the freshly closed grant channels —
// a worker yielding during plane teardown, or a late restart firing after
// shutdown, could take the whole process down. The contract now: Close is
// idempotent and concurrency-safe, sends after (or racing) Close are
// defined no-ops, and RecvGrant reports ok=false to parked workers.
// Run with -race: the point is the interleavings, not the assertions.

import (
	"sync"
	"sync/atomic"
	"testing"

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
				var wg sync.WaitGroup
				// Workers drain grants until the transport closes under them.
				for pid := 0; pid < n; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						for {
							if _, ok := ct.RecvGrant(pid); !ok {
								return
							}
						}
					}(pid)
				}
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
				wg.Wait()
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
