// This file is the fully asynchronous end of the live plane: the paper's
// §2.1 remark that Protocol A "can be easily modified to run in any
// completely asynchronous system equipped with a failure detection
// mechanism". Where the barrier plane keeps the synchronous round structure
// and makes concurrency invisible in the Result, here there are no rounds at
// all. Each process is a goroutine stepping its sim.Stepper unchanged on a
// local clock; messages travel over a Network with seeded random delays; and
// a sound failure detector (it never reports a live process as retired, and
// eventually reports every retired one) replaces the synchronous deadlines.
// A process that sleeps until Until wakes when mail arrives, or once the
// detector reports every lower-numbered process retired, and then its clock
// jumps to Until. That is §2.1's change: process j takes over once 0..j−1
// are known retired instead of at round DD(j), and Protocol A's own
// "p.Now() >= deadline" test becomes the detector test.

package live

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// Network routes messages between processes with per-message random delays,
// modelling full asynchrony. It is safe for concurrent use.
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand
	maxDelay time.Duration
	sent     int64
	closed   bool
	boxes    []netBox
	wg       sync.WaitGroup
	inflight []sync.WaitGroup // per-sender in-flight deliveries
}

// netBox is one process's undrained mail; ready holds a token while mail
// may be waiting.
type netBox struct {
	mail  []sim.Message
	ready chan struct{}
}

// NewNetwork builds a network for t processes. maxDelay bounds the random
// per-message delivery delay; seed makes delay choices reproducible.
func NewNetwork(t int, maxDelay time.Duration, seed int64) *Network {
	n := &Network{
		rng:      rand.New(rand.NewSource(seed)),
		maxDelay: maxDelay,
		boxes:    make([]netBox, t),
		inflight: make([]sync.WaitGroup, t),
	}
	for i := range n.boxes {
		n.boxes[i].ready = make(chan struct{}, 1)
	}
	return n
}

// Send routes m to m.To after a random delay. Messages to out-of-range
// destinations, or sent after Close, vanish as messages to crashed
// processes do.
func (n *Network) Send(m sim.Message) {
	if m.To < 0 || m.To >= len(n.boxes) || m.From < 0 || m.From >= len(n.boxes) {
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	delay := time.Duration(0)
	if n.maxDelay > 0 {
		delay = time.Duration(n.rng.Int63n(int64(n.maxDelay)))
	}
	n.sent++
	n.wg.Add(1)
	n.inflight[m.From].Add(1)
	n.mu.Unlock()
	if delay == 0 {
		n.deliver(m)
		return
	}
	time.AfterFunc(delay, func() { n.deliver(m) })
}

// deliver lands a message in its mailbox and retires the in-flight
// accounting Send took out.
func (n *Network) deliver(m sim.Message) {
	n.mu.Lock()
	b := &n.boxes[m.To]
	b.mail = append(b.mail, m)
	n.mu.Unlock()
	select {
	case b.ready <- struct{}{}:
	default:
	}
	n.inflight[m.From].Done()
	n.wg.Done()
}

// Ready returns process id's mail signal: it holds a token whenever mail
// was delivered since the last Take.
func (n *Network) Ready(id int) <-chan struct{} { return n.boxes[id].ready }

// Take returns and clears process id's delivered mail.
func (n *Network) Take(id int) []sim.Message {
	b := &n.boxes[id]
	select {
	case <-b.ready:
	default:
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mail := b.mail
	b.mail = nil
	return mail
}

// FlushFrom blocks until every message already sent by from has been
// delivered. A retiring process calls it before the detector reports it, so
// a retirement report never overtakes the retiree's own messages — the
// asynchronous analogue of the synchronous guarantee that a round's
// messages land before the next round's deadlines. Without this ordering a
// successor can take over knowing nothing, and the 3n work bound of
// Theorem 2.3 degenerates to O(nt) (see DESIGN.md §7.6).
func (n *Network) FlushFrom(from int) {
	// Safe: the sender has stopped, so no concurrent Add can race the Wait.
	n.inflight[from].Wait()
}

// Sent returns the number of messages handed to the network so far.
func (n *Network) Sent() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent
}

// Close stops accepting sends and waits for in-flight deliveries.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// Detector is a sound and eventually-complete failure detector: p is
// reported retired only after it has actually crashed or terminated, and
// every retirement is eventually reported to every subscriber.
type Detector struct {
	mu      sync.Mutex
	retired []bool
	waiters []chan struct{}
}

// NewDetector builds a detector for t processes.
func NewDetector(t int) *Detector {
	return &Detector{retired: make([]bool, t)}
}

// MarkRetired records that process p has crashed or terminated. Only the
// runtime that actually observed the retirement may call it (soundness).
func (d *Detector) MarkRetired(p int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired[p] {
		return
	}
	d.retired[p] = true
	for _, w := range d.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

// AllRetiredBelow reports whether every process with ID < p is known
// retired.
func (d *Detector) AllRetiredBelow(p int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < p; i++ {
		if !d.retired[i] {
			return false
		}
	}
	return true
}

// Subscribe returns a channel that receives a token whenever some process
// retires. The channel has capacity 1 and coalesces notifications.
func (d *Detector) Subscribe() <-chan struct{} {
	ch := make(chan struct{}, 1)
	d.mu.Lock()
	d.waiters = append(d.waiters, ch)
	d.mu.Unlock()
	return ch
}

// RunAsync runs t processes over n work units on the asynchronous plane:
// one goroutine per process, steppers(id) its body, messages delayed by up
// to maxDelay from a stream seeded by seed. plan crashes processes as data,
// in the entries adversary.NewSchedule takes, so the same plan replays on
// the engine: each entry is triggered by action (PID, AtAction, KeepWork,
// Deliver), and a round trigger, a RestartAt or an out-of-range PID is
// refused. A retiring process clears its active flag, flushes its sent
// messages and only then is reported to the detector (DESIGN §7.6). The
// Result carries WorkTotal, WorkDistinct, Messages, Crashes, Survivors and
// CompletedRound (the completing process's clock); the error reports a
// panicking body or more than one process active at once.
func RunAsync(n, t int, maxDelay time.Duration, seed int64, plan []adversary.Crash,
	steppers func(id int) sim.Stepper) (sim.Result, error) {
	h := &asyncHost{
		n: n, net: NewNetwork(t, maxDelay, seed), fd: NewDetector(t),
		crashAt: make([]*adversary.Crash, t), done: make([]bool, n+1), active: make([]bool, t),
		res: sim.Result{CompletedRound: -1},
	}
	for i := range plan {
		c := &plan[i]
		switch {
		case c.PID < 0 || c.PID >= t:
			return sim.Result{}, fmt.Errorf("live: async crash plan names pid %d of %d", c.PID, t)
		case c.AtAction <= 0:
			return sim.Result{}, fmt.Errorf("live: async crash plan entry for pid %d has no action trigger", c.PID)
		case c.RestartAt != 0:
			return sim.Result{}, fmt.Errorf("live: async crash plan entry for pid %d restarts at %d; the async plane has no restarts", c.PID, c.RestartAt)
		}
		h.crashAt[c.PID] = c
	}
	if n == 0 {
		h.res.CompletedRound = 0
	}
	procs := make([]*asyncProc, t)
	for pid := range procs {
		a := &asyncProc{h: h, pid: pid}
		a.proc = sim.NewHostedProc(a, pid, steppers(pid))
		procs[pid] = a
	}
	h.wg.Add(t)
	for _, a := range procs {
		go a.run()
	}
	h.wg.Wait()
	h.net.Close()
	h.res.Messages = h.net.Sent()
	return h.res, h.err
}

// asyncHost is what the processes of one asynchronous run share.
type asyncHost struct {
	n       int
	net     *Network
	fd      *Detector
	crashAt []*adversary.Crash // by PID; nil: the process is not crashed
	wg      sync.WaitGroup

	mu      sync.Mutex // guards everything below
	res     sim.Result
	done    []bool // by unit
	active  []bool // by PID
	nActive int
	err     error
}

// asyncProc is one process: the sim.Host its Proc reads (a local clock
// behind Round) and the loop that steps it.
type asyncProc struct {
	h       *asyncHost
	pid     int
	proc    *sim.Proc
	clock   int64
	actions int
}

func (a *asyncProc) NumProcs() int { return len(a.h.active) }
func (a *asyncProc) NumUnits() int { return a.h.n }
func (a *asyncProc) Round() int64  { return a.clock }
func (a *asyncProc) SetActive(pid int, v bool) {
	h := a.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.active[pid] == v {
		return
	}
	h.active[pid] = v
	if !v {
		h.nActive--
		return
	}
	h.nActive++
	if h.nActive > 1 && h.err == nil {
		h.err = fmt.Errorf("live: invariant violated at proc %d's clock %d: %d active processes (max 1)",
			pid, a.clock, h.nActive)
	}
}

// run steps the process until it halts, crashes or panics: mail delivered
// since the last step goes into its inbox first, as the engine delivers at
// the start of a round.
func (a *asyncProc) run() {
	defer a.h.wg.Done()
	wake := a.h.fd.Subscribe()
	for {
		for _, m := range a.h.net.Take(a.pid) {
			a.proc.Deliver(m)
		}
		y, v, panicked := a.proc.TryStep()
		switch {
		case panicked:
			a.h.fail(fmt.Errorf("sim: proc %d panicked: %v", a.pid, v))
			a.retire(false)
			return
		case y.Kind == sim.YieldHalt:
			a.retire(true)
			return
		case y.Kind == sim.YieldAction:
			if !a.commit(&y.Action) {
				return
			}
		case y.Kind == sim.YieldSleep:
			a.sleep(y.Until, wake)
		}
	}
}

// commit performs one action at the process's clock and advances it; a
// planned crash keeps the action's unit only under KeepWork and transmits
// only the sends its Deliver mask selects. It reports whether the process
// lives on.
func (a *asyncProc) commit(act *sim.Action) bool {
	h := a.h
	now := a.clock
	a.clock++
	a.actions++
	c := h.crashAt[a.pid]
	crashed := c != nil && a.actions == c.AtAction
	h.mu.Lock()
	if u := act.WorkUnit; u > 0 && (!crashed || c.KeepWork) {
		h.res.WorkTotal++
		if u < len(h.done) && !h.done[u] {
			h.done[u] = true
			h.res.WorkDistinct++
			if h.res.WorkDistinct == h.n {
				h.res.CompletedRound = now
			}
		}
	}
	if crashed {
		h.res.Crashes++
	}
	h.mu.Unlock()
	for i, k := 0, act.SendCount(); i < k; i++ {
		if crashed && (i >= len(c.Deliver) || !c.Deliver[i]) {
			continue
		}
		s := act.SendAt(i)
		h.net.Send(sim.Message{From: a.pid, To: s.To, SentAt: now, Payload: s.Payload})
	}
	if crashed {
		a.retire(false)
	}
	return !crashed
}

// sleep waits for mail, or for the detector to report every lower PID
// retired; in the second case the clock jumps to until.
func (a *asyncProc) sleep(until int64, wake <-chan struct{}) {
	ready := a.h.net.Ready(a.pid)
	for !a.h.fd.AllRetiredBelow(a.pid) {
		select {
		case <-ready:
			return
		case <-wake:
		}
	}
	a.clock = max(a.clock, until)
}

// retire books the process's end, halted or not. It clears the active flag
// and flushes the process's messages before the detector may report it.
func (a *asyncProc) retire(halted bool) {
	h := a.h
	a.SetActive(a.pid, false)
	if halted {
		h.mu.Lock()
		h.res.Survivors++
		h.mu.Unlock()
	}
	h.net.FlushFrom(a.pid)
	h.fd.MarkRetired(a.pid)
}

// fail records the run's first error.
func (h *asyncHost) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.mu.Unlock()
}
