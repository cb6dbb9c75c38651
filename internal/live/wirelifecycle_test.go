package live_test

// Wire-plane lifecycle and traffic-shape tests: teardown by protocol (fin),
// the format version handshake, the unencodable-payload failure path, and
// the one-frame-per-join-per-round batching.

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/sim"
)

// TestWireClusterTeardown runs 200 clusters back to back: a serve and two
// joins over loopback TCP each. Every join must return nil every time — the
// serve's fin, not a timer, tells a join that the EOF which follows is the
// end of the run (before the fin frame existed about one run in a few
// thousand lost that race and redialed a closed listener for ten seconds).
func TestWireClusterTeardown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	for i := 0; i < 200 && !t.Failed(); i++ {
		protocol := []string{"b", "d"}[i%2]
		res, _, err := wireCluster{protocol: protocol, n: 8, tt: 4, joins: 2}.run(t, noAdv)
		if err != nil || res.WorkDistinct != 8 {
			t.Fatalf("run %d (%s): distinct work %d, err %v", i, protocol, res.WorkDistinct, err)
		}
	}
}

// TestWireVersionMismatch pins the handshake's format check in both
// directions: each end refuses the other with one line naming both versions,
// instead of mis-decoding the other build's frames into a hung barrier.
func TestWireVersionMismatch(t *testing.T) {
	t.Parallel()
	const theirs = live.WireVersion + 1
	wantBoth := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("mismatched peer accepted")
		}
		for _, want := range []string{"version mismatch", fmt.Sprintf("version %d,", theirs), fmt.Sprintf("version %d", live.WireVersion)} {
			if !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
				t.Errorf("want a one-line error containing %q, got: %v", want, err)
			}
		}
	}
	t.Run("join refuses a newer serve", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { // the other build's serve: reads the hello, welcomes in its own format
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := live.ReadWireFrame(conn); err == nil {
				live.WriteWireFrame(conn, &live.WireFrame{Kind: live.FrameWelcome, Version: theirs, Session: 1})
			}
		}()
		wantBoth(t, live.Join(live.JoinConfig{
			Addr: ln.Addr().String(),
			Steppers: func(live.WireSpec) (func(int) sim.Stepper, error) {
				t.Error("join built workers for a serve it cannot talk to")
				return nil, nil
			},
		}))
	})
	t.Run("serve refuses a newer join", func(t *testing.T) {
		wt, err := live.NewWireTransport(live.WireOptions{
			Addr: "127.0.0.1:0", Joins: 1, Spec: live.WireSpec{Protocol: "b", Units: 8, Workers: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer wt.Close()
		conn, err := net.Dial("tcp", wt.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := live.WriteWireFrame(conn, &live.WireFrame{Kind: live.FrameHello, Version: theirs}); err != nil {
			t.Fatal(err)
		}
		r := live.NewFrameReader(conn)
		welcome, err := r.Next()
		if err != nil || welcome.Kind != live.FrameWelcome || welcome.Version != live.WireVersion {
			t.Fatalf("want a welcome naming version %d, got %+v, %v", live.WireVersion, welcome, err)
		}
		if f, err := r.Next(); err == nil {
			t.Fatalf("serve kept talking to a mismatched join: %+v", f)
		}
		wantBoth(t, wt.WaitReady())
	})
}

// Payload types for the unencodable-payload tests. alienPayload is in no
// wire table. localPayload is in the test's table for encoding only, and
// what it decodes to is an alienPayload — so it crosses join → serve inside a
// yield, and then cannot leave again inside a grant.
type (
	alienPayload struct{}
	localPayload struct{}
)

const tagLocalPayload = 250

// scriptedStepper plays a fixed list of yields, then halts.
type scriptedStepper struct{ script []sim.Yield }

func (s *scriptedStepper) Step(p *sim.Proc) sim.Yield {
	p.Drain()
	if len(s.script) == 0 {
		return sim.Yield{}
	}
	y := s.script[0]
	s.script = s.script[1:]
	return y
}

// TestWireUnencodablePayload drives the failure path nothing else reaches: a
// payload type the wire table does not know, once inside a yield and once
// inside a grant. Either way the run must fail with the one-line text naming
// the frame and the process, and the cluster must still tear down cleanly —
// a frame that cannot be encoded takes no sequence number, so the kill
// grants and the fin behind it are not parked behind a hole, and no barrier
// is left waiting for a yield that will never come.
//
// Not parallel: it extends the process-wide payload table while it runs.
func TestWireUnencodablePayload(t *testing.T) {
	var suite sim.PayloadCodec // the registered table, which the test's wraps
	suite = sim.RegisterPayloadCodec(sim.PayloadCodec{
		Append: func(b []byte, payload any) ([]byte, error) {
			if _, ok := payload.(localPayload); ok {
				return append(b, tagLocalPayload), nil
			}
			return suite.Append(b, payload)
		},
		Read: func(tag byte, r *sim.WireReader) any {
			if tag == tagLocalPayload {
				return alienPayload{}
			}
			return suite.Read(tag, r)
		},
	})
	defer sim.RegisterPayloadCodec(suite)

	for _, tc := range []struct {
		name    string
		payload any
		wantErr string
		grants  int // grant frames the serve sends: per join, round 0's and the kills — plus round 1's where it can be built
	}{
		{"yield", alienPayload{}, "live: yield frame for proc 0: ", 4},
		{"grant", localPayload{}, "live: grant frame for proc 1: ", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wt, err := live.NewWireTransport(live.WireOptions{
				Addr: "127.0.0.1:0", Joins: 2, Spec: live.WireSpec{Protocol: "scripted", Units: 1, Workers: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			joinErrs := make(chan error, 2)
			for i := 0; i < 2; i++ {
				go func() {
					joinErrs <- live.Join(live.JoinConfig{Addr: wt.Addr(), Steppers: func(live.WireSpec) (func(int) sim.Stepper, error) {
						return func(id int) sim.Stepper {
							if id == 1 { // woken by proc 0's message in round 1
								return &scriptedStepper{script: []sim.Yield{{Kind: sim.YieldSleep, Until: 50}}}
							}
							return &scriptedStepper{script: []sim.Yield{{Kind: sim.YieldAction, Action: sim.Action{
								Sends: []sim.Send{{To: 1, Payload: tc.payload}},
							}}}}
						}, nil
					}})
				}()
			}
			if err := wt.WaitReady(); err != nil {
				t.Fatal(err)
			}
			_, runErr := live.Run(live.Config{NumProcs: 2, NumUnits: 1, Transport: wt}, nil)
			if runErr == nil || !strings.Contains(runErr.Error(), tc.wantErr) ||
				!strings.Contains(runErr.Error(), "payload type not in the wire table") || strings.Contains(runErr.Error(), "\n") {
				t.Errorf("run error: want one line containing %q and the codec's reason, got: %v", tc.wantErr, runErr)
			}
			for i := 0; i < 2; i++ {
				select {
				case err := <-joinErrs:
					if err != nil {
						t.Errorf("join: %v", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("join still running: a frame behind the failed one never arrived")
				}
			}
			if sent, _ := wt.Frames(); sent[live.FrameGrant] != tc.grants || sent[live.FrameFin] != 2 {
				t.Errorf("serve sent %d grant frames and %d fins, want %d and 2", sent[live.FrameGrant], sent[live.FrameFin], tc.grants)
			}
		})
	}
}

// TestWireClusterRoundFrames pins the traffic shape of the batched wire: a
// round costs each join at most one grant frame and one yield frame however
// many of its PIDs step in it, so protocols that step everyone every round
// (D, gossip) put 2 × joins × rounds frames on the wire where the per-PID
// transport put 2 × t × rounds (and as many acks again).
func TestWireClusterRoundFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns socket clusters")
	}
	const n, tt, joins = 24, 8, 2
	for _, protocol := range []string{"d", "gossip"} {
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			var wt *live.WireTransport
			cc := wireCluster{protocol: protocol, n: n, tt: tt, joins: joins, serving: func(w *live.WireTransport) { wt = w }}
			res := requireWireConformance(t, cc, noAdv) // failure-free: all eight step every round
			sent, yieldFrames := wt.Frames()
			rounds := int(res.Rounds) + 1                         // rounds 0..Rounds; the fast-forwarded ones grant nothing
			if g := sent[live.FrameGrant]; g > joins*(rounds+1) { // + the shutdown kills
				t.Errorf("%d grant frames for %d rounds over %d joins: want at most %d", g, rounds, joins, joins*(rounds+1))
			}
			if y := yieldFrames; y > joins*rounds {
				t.Errorf("%d yield frames for %d rounds over %d joins: want at most %d", y, rounds, joins, joins*rounds)
			}
			if steps := int(res.Events); sent[live.FrameGrant] > steps/3 || yieldFrames > steps/3 {
				t.Errorf("%d grant and %d yield frames for %d steps: the rounds are not batched",
					sent[live.FrameGrant], yieldFrames, steps)
			}
			if sent[live.FrameFin] != joins {
				t.Errorf("%d fin frames, want one per join", sent[live.FrameFin])
			}
			if sent[live.FrameAck] > yieldFrames {
				t.Errorf("%d standalone acks for %d yield frames: acks are not riding the grants", sent[live.FrameAck], yieldFrames)
			}
			t.Logf("%s: %d steps in %d rounds: %d grant frames, %d yield frames, %d standalone acks, %d crash + %d restart controls",
				protocol, res.Events, rounds, sent[live.FrameGrant], yieldFrames, sent[live.FrameAck],
				sent[live.FrameCrash], sent[live.FrameRestart])
		})
	}
}
