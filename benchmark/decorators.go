package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/sim"
)

// The decorators time calls into a layer's exported API from outside the
// layer. Both planes discover optional interfaces by type assertion, so each
// decorator exposes exactly the optional interfaces of the value it wraps:
// implementing one the wrapped value lacks changes what the plane does
// (Restarter makes it checkpoint at every crash, WorkerHoster flips it to
// remote mode), and hiding one it has loses faults.

// callAcc totals the timed calls of one kind.
type callAcc struct {
	calls int64
	ns    int64
}

func (a *callAcc) add(t0 time.Time) {
	a.calls++
	a.ns += int64(time.Since(t0))
}

func (a *callAcc) merge(b callAcc) {
	a.calls += b.calls
	a.ns += b.ns
}

// stepAcc is what the Stepper decorator sees of one process (or, where all
// processes step on one goroutine, of one run): the Step calls and the
// traffic their yields ask the engine to carry. Padded to a cache line
// because the live plane steps neighbouring processes on different cores.
type stepAcc struct {
	step    callAcc
	p2p     int64 // explicit sends yielded
	bcastTo int64 // broadcast recipients yielded
	sleeps  int64 // sleep yields
	_       [3]int64
}

func (a *stepAcc) merge(b *stepAcc) {
	a.step.merge(b.step)
	a.p2p += b.p2p
	a.bcastTo += b.bcastTo
	a.sleeps += b.sleeps
}

// timedStepper times every Step of the process body it wraps.
type timedStepper struct {
	inner sim.Stepper
	acc   *stepAcc
}

func (s *timedStepper) Step(p *sim.Proc) sim.Yield {
	t0 := time.Now()
	y := s.inner.Step(p)
	s.acc.step.add(t0)
	switch y.Kind {
	case sim.YieldAction:
		s.acc.p2p += int64(len(y.Action.Sends))
		s.acc.bcastTo += int64(len(y.Action.Broadcast.To))
	case sim.YieldSleep:
		s.acc.sleeps++
	}
	return y
}

// timedRecoverable is timedStepper around a body that can be checkpointed;
// without it a decorated run would silently lose its crash-recovery faults.
type timedRecoverable struct {
	timedStepper
	rec sim.Recoverable
}

func (s *timedRecoverable) Snapshot() any    { return s.rec.Snapshot() }
func (s *timedRecoverable) Restore(snap any) { s.rec.Restore(snap) }

// timeStepper wraps one process body. Script-backed bodies cannot be wrapped
// from outside package sim (the shim is unexported); every benchmark case
// runs native steppers.
func timeStepper(inner sim.Stepper, acc *stepAcc) sim.Stepper {
	if rec, ok := inner.(sim.Recoverable); ok {
		return &timedRecoverable{timedStepper: timedStepper{inner: inner, acc: acc}, rec: rec}
	}
	return &timedStepper{inner: inner, acc: acc}
}

// stepSet decorates the process bodies of one run. build totals the
// per-process constructor calls, which the planes make while they reset.
type stepSet struct {
	inner func(int) sim.Stepper
	accs  []stepAcc // one per process, or a single shared one
	build callAcc
}

// newStepSet decorates inner. perProc sizes one accumulator per process for
// planes that step concurrently; 0 shares one.
func newStepSet(inner func(int) sim.Stepper, perProc int) *stepSet {
	return &stepSet{inner: inner, accs: make([]stepAcc, max(perProc, 1))}
}

func (s *stepSet) make(id int) sim.Stepper {
	t0 := time.Now()
	st := s.inner(id)
	s.build.add(t0)
	return timeStepper(st, &s.accs[id%len(s.accs)])
}

func (s *stepSet) total() stepAcc {
	var t stepAcc
	for i := range s.accs {
		t.merge(&s.accs[i])
	}
	return t
}

// advAcc is what the Adversary decorator sees of one run. The planes call
// the adversary only from their serial section, so plain fields suffice.
type advAcc struct {
	onAction  callAcc
	onDeliver callAcc
	schedule  callAcc // ScheduledCrashes + NextScheduledCrash
	rounds    int64   // ScheduledCrashes calls: the planes make one per executed round
}

func (a *advAcc) total() callAcc {
	t := a.onAction
	t.merge(a.onDeliver)
	t.merge(a.schedule)
	return t
}

// timedAdversary times the required sim.Adversary methods.
type timedAdversary struct {
	inner sim.Adversary
	acc   *advAcc
}

func (a timedAdversary) OnAction(round int64, pid int, act sim.Action) sim.Verdict {
	t0 := time.Now()
	v := a.inner.OnAction(round, pid, act)
	a.acc.onAction.add(t0)
	return v
}

func (a timedAdversary) ScheduledCrashes(round int64) []int {
	t0 := time.Now()
	pids := a.inner.ScheduledCrashes(round)
	a.acc.schedule.add(t0)
	a.acc.rounds++
	return pids
}

func (a timedAdversary) NextScheduledCrash(after int64) int64 {
	t0 := time.Now()
	r := a.inner.NextScheduledCrash(after)
	a.acc.schedule.add(t0)
	return r
}

// timedDelivery is the DeliveryAdversary half, mixed in only when the
// wrapped adversary drops messages.
type timedDelivery struct {
	inner sim.DeliveryAdversary
	acc   *advAcc
}

func (d timedDelivery) OnDeliver(round int64, m sim.Message) bool {
	t0 := time.Now()
	ok := d.inner.OnDeliver(round, m)
	d.acc.onDeliver.add(t0)
	return ok
}

// timeAdversary wraps inner, exposing DeliveryAdversary and Restarter only
// when inner has them. Restart schedules are forwarded untimed: they are
// consulted once per round and cost nothing measurable.
func timeAdversary(inner sim.Adversary, acc *advAcc) sim.Adversary {
	base := timedAdversary{inner: inner, acc: acc}
	d, hasD := inner.(sim.DeliveryAdversary)
	r, hasR := inner.(sim.Restarter)
	del := timedDelivery{inner: d, acc: acc}
	switch {
	case hasD && hasR:
		return struct {
			timedAdversary
			timedDelivery
			sim.Restarter
		}{base, del, r}
	case hasD:
		return struct {
			timedAdversary
			timedDelivery
		}{base, del}
	case hasR:
		return struct {
			timedAdversary
			sim.Restarter
		}{base, r}
	}
	return base
}

// sampleEvery thins the per-frame samples the transport decorators keep: a
// traced live-mix run moves millions of frames.
const sampleEvery = 16

// sampler totals the durations it is shown and keeps every sampleEvery-th
// one for the percentiles.
type sampler struct {
	callAcc
	kept []int64
}

func (s *sampler) add(ns int64) {
	if s.calls%sampleEvery == 0 {
		s.kept = append(s.kept, ns)
	}
	s.calls++
	s.ns += ns
}

// chanPID is the worker-owned part of timedChan for one process.
type chanPID struct {
	grantAt atomic.Int64 // when the coordinator sent the grant now in flight
	wait    sampler      // blocked in RecvGrant: how long work waited for the barrier
	hop     sampler      // SendGrant → RecvGrant return: the channel hand-off
}

// timedChan times the barrier traffic of the in-process transport. It must
// not implement live.WorkerHoster, or the plane would stop hosting workers.
type timedChan struct {
	inner *live.ChanTransport
	t0    time.Time
	pids  []chanPID

	// Token-holder state: only the goroutine running the coordinator turn
	// calls SendGrant, and the barrier orders successive holders.
	round      int64
	lastYield  atomic.Int64 // when the most recent yield frame was sent
	turnaround sampler      // last yield of a round → first grant of the next
}

func newTimedChan() *timedChan {
	return &timedChan{inner: live.NewChanTransport(live.Latency{}), t0: time.Now(), round: -1}
}

func (tc *timedChan) now() int64 { return int64(time.Since(tc.t0)) }

func (tc *timedChan) Open(n int, sink live.YieldSink) {
	tc.pids = make([]chanPID, n)
	tc.inner.Open(n, sink)
}

func (tc *timedChan) SendGrant(pid int, g live.Grant) {
	if !g.Kill {
		now := tc.now()
		if g.Round != tc.round {
			tc.round = g.Round
			if last := tc.lastYield.Load(); last > 0 {
				tc.turnaround.add(now - last)
			}
		}
		tc.pids[pid].grantAt.Store(now)
	}
	tc.inner.SendGrant(pid, g)
}

func (tc *timedChan) RecvGrant(pid int) (live.Grant, bool) {
	p := &tc.pids[pid]
	t0 := tc.now()
	g, ok := tc.inner.RecvGrant(pid)
	if ok && !g.Kill {
		now := tc.now()
		p.wait.add(now - t0)
		p.hop.add(now - p.grantAt.Load())
	}
	return g, ok
}

// SendYield stamps the frame before handing it on: the batched transport
// runs the whole coordinator turn, next round's grants included, inside the
// inner call.
func (tc *timedChan) SendYield(f live.YieldFrame) {
	tc.lastYield.Store(tc.now())
	tc.inner.SendYield(f)
}

func (tc *timedChan) Close() { tc.inner.Close() }

// timedWire times the serve side of the wire transport. It forwards
// live.WorkerHoster (by embedding), so the plane stays in remote mode, and
// wraps the sink it is handed so that it sees every yield arrive.
type timedWire struct {
	live.WorkerHoster // the *live.WireTransport
	t0                time.Time
	sink              live.YieldSink

	grantAt []atomic.Int64
	frames  atomic.Int64 // sequenced frames either way: grants, kills, yields, crash/restart relays

	// Token-holder state, as in timedChan.
	round      int64
	roundStart int64
	rounds     int64
	inFlight   int64 // Σ per round: first grant → last arrival
	lastArrive atomic.Int64
	turns      callAcc

	mu  sync.Mutex // Arrive runs on one dispatcher goroutine per join
	rtt []int64    // SendGrant(pid) → Arrive for that pid

	closeNs int64
}

func newTimedWire(wt *live.WireTransport) *timedWire {
	return &timedWire{WorkerHoster: wt, t0: time.Now(), round: -1}
}

func (tw *timedWire) now() int64 { return int64(time.Since(tw.t0)) }

func (tw *timedWire) Open(n int, sink live.YieldSink) {
	tw.grantAt = make([]atomic.Int64, n)
	tw.sink = sink
	tw.WorkerHoster.Open(n, tw)
}

func (tw *timedWire) SendGrant(pid int, g live.Grant) {
	tw.frames.Add(1)
	if !g.Kill {
		now := tw.now()
		if g.Round != tw.round {
			tw.closeRound()
			tw.round, tw.roundStart = g.Round, now
			tw.rounds++
			if last := tw.lastArrive.Load(); last > 0 {
				tw.turns.calls++
				tw.turns.ns += now - last
			}
		}
		tw.grantAt[pid].Store(now)
	}
	tw.WorkerHoster.SendGrant(pid, g)
}

// closeRound books the finished round's time in flight.
func (tw *timedWire) closeRound() {
	if tw.round >= 0 {
		tw.inFlight += tw.lastArrive.Load() - tw.roundStart
	}
}

// Arrive implements live.YieldSink in front of the plane's barrier. The
// stamp precedes the inner call because the arrival that completes the batch
// runs the coordinator turn, next round's grants included, inside it.
func (tw *timedWire) Arrive(f live.YieldFrame) {
	now := tw.now()
	tw.frames.Add(1)
	if f.PID >= 0 && f.PID < len(tw.grantAt) {
		tw.mu.Lock()
		tw.rtt = append(tw.rtt, now-tw.grantAt[f.PID].Load())
		tw.mu.Unlock()
	}
	tw.lastArrive.Store(now)
	tw.sink.Arrive(f)
}

func (tw *timedWire) SnapshotWorker(pid int) {
	tw.frames.Add(1)
	tw.WorkerHoster.SnapshotWorker(pid)
}

func (tw *timedWire) RestoreWorker(pid int) {
	tw.frames.Add(1)
	tw.WorkerHoster.RestoreWorker(pid)
}

func (tw *timedWire) Close() {
	tw.closeRound()
	tw.round = -1
	t0 := tw.now()
	tw.WorkerHoster.Close()
	tw.closeNs += tw.now() - t0
}
