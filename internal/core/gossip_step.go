package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// Gossip is the successor Do-All strategy in the style of the
// epidemic/gossip line of algorithms (Chlebus–Kowalski and successors)
// rather than the paper's coordinator chains: leader-free, epoch-structured,
// and communication-bounded by construction. Every process keeps a local
// view of the done units and alternates two-round epochs:
//
//   - work round: merge every rumor delivered so far into the view, then
//     perform the first unit of its private seeded order not yet in the
//     view (idling once the view is complete). The order is a keyed
//     bijection of 1..n evaluated on demand (gossipOrder), so a build draws
//     only the (t−1)-entry peer rotation, not an n-entry row;
//   - gossip round: broadcast the view as a Rumor to the next fanout-many
//     peers of its private seeded peer rotation.
//
// The rotation advances by the fanout every epoch, so any cover-many
// consecutive epochs reach every peer; with fanout ~log t the per-epoch
// message cost is O(t log t) while information still spreads within
// O(t/log t) epochs. A process whose view completes gossips for cover-many
// more epochs (the retirement lap, so its complete view reaches everyone
// even if every other rumor was lost) and halts.
//
// Correctness needs no delivery assumptions: a live process with an
// incomplete view performs an unknown unit every epoch, so its own work
// alone completes its view in at most n epochs — rumors only shave the
// duplicated work. A unit enters a view either by local work or by a rumor
// from a process that confirmed the unit one round after emitting it, so
// poisoned bits (work discarded by a KeepWork=false crash) never propagate:
// the crash kills the process before its confirm step, and the crash-time
// checkpoint clears the in-flight unit (see Snapshot), so even a restarted
// process retries it.
//
// Unlike the paper's single-active protocols, all t processes work
// concurrently (SingleActive does not hold); the protocol is seeded per PID,
// so it is not symmetric under PID renaming either.

// Rumor is the gossip payload, sent as *Rumor: the sender's view of the
// done units as bitset words (unit u = bit u; bit 0 unused). The box and
// its words are a frozen entry of the sender's viewArena — receivers only
// read it (Union), senders never mutate published words.
type Rumor struct {
	Done []uint64
}

// Kind implements sim.Kinder.
func (Rumor) Kind() string { return "rumor" }

// GossipConfig configures the gossip Do-All protocol.
type GossipConfig struct {
	// N is the number of work units, T the number of processes.
	N, T int
	// Seed diversifies the per-process unit permutations and peer
	// rotations. Any value works; runs are deterministic in (N, T, Seed,
	// Fanout).
	Seed int64
	// Fanout is the number of peers gossiped to per epoch; 0 picks the
	// default GossipFanout(T) ≈ log t, and values above T-1 are clamped.
	Fanout int
}

// gossipPlan is the resolved shape shared by every process of a run.
type gossipPlan struct {
	n, t  int
	d     int // fanout, clamped to [0, t-1]
	cover int // epochs for the rotation to reach every peer: ceil((t-1)/d)
	seed  int64
}

func planGossip(cfg GossipConfig) (gossipPlan, error) {
	if cfg.T <= 0 || cfg.N < 0 || cfg.Fanout < 0 {
		return gossipPlan{}, fmt.Errorf("core: invalid gossip config n=%d t=%d fanout=%d", cfg.N, cfg.T, cfg.Fanout)
	}
	d := cfg.Fanout
	if d == 0 {
		d = GossipFanout(cfg.T)
	}
	if d > cfg.T-1 {
		d = cfg.T - 1
	}
	pl := gossipPlan{n: cfg.N, t: cfg.T, d: d, seed: cfg.Seed}
	if d > 0 {
		pl.cover = (cfg.T - 2 + d) / d
	}
	return pl, nil
}

// splitmix64 is the SplitMix64 generator step: tiny, seedable and stable
// across Go versions, unlike math/rand. Protocol determinism (and so
// cross-plane conformance) rides on it.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gossipSeed derives the per-process, per-purpose shuffle seed.
func gossipSeed(seed int64, id int, salt uint64) uint64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id+1)*0xd1342543de82ef95 ^ salt
	return splitmix64(&s)
}

// seededShuffle is a Fisher–Yates shuffle driven by splitmix64.
func seededShuffle(vals []int32, seed uint64) {
	s := seed
	for i := len(vals) - 1; i > 0; i-- {
		j := int(splitmix64(&s) % uint64(i+1))
		vals[i], vals[j] = vals[j], vals[i]
	}
}

// gossipOrderRounds is the number of keyed rounds in gossipOrder's mix.
const gossipOrderRounds = 3

// gossipOrder is a process's private unit order: a seeded bijection from
// positions 0..n-1 onto units 1..n, evaluated on demand instead of drawn
// into an n-entry row. mix is a keyed bijection of the k-bit words [0, 2^k)
// for the least 2^k ≥ n — each round xors a key, multiplies by an odd key
// and xorshifts right, all invertible mod 2^k — and at cycle-walks it below
// n: since mix permutes [0, 2^k), the walk from a position below n returns
// below n, and it takes fewer than two steps on average (2^k < 2n). Keying
// an order is O(1), and a run pays one evaluation per position it consumes.
type gossipOrder struct {
	n     uint64
	mask  uint64 // 2^k - 1
	shift uint   // xorshift distance, about k/2
	xor   [gossipOrderRounds]uint64
	mul   [gossipOrderRounds]uint64 // odd
}

func newGossipOrder(n int, seed uint64) gossipOrder {
	o := gossipOrder{n: uint64(n)}
	if n > 1 {
		k := bits.Len64(uint64(n - 1))
		o.mask = 1<<k - 1
		o.shift = uint(max(1, (k+1)/2))
	}
	s := seed
	for r := range o.xor {
		o.xor[r] = splitmix64(&s) & o.mask
		o.mul[r] = splitmix64(&s) | 1
	}
	return o
}

// mix is the keyed bijection of [0, mask].
func (o *gossipOrder) mix(x uint64) uint64 {
	for r := range o.xor {
		x = (x ^ o.xor[r]) * o.mul[r] & o.mask
		x ^= x >> o.shift
	}
	return x
}

// at returns the unit at position i, 0 ≤ i < n.
func (o *gossipOrder) at(i int) int {
	x := o.mix(uint64(i))
	for x >= o.n {
		x = o.mix(x)
	}
	return int(x) + 1
}

const (
	gossipWorkRound = iota // next step is the epoch's work round
	gossipSendRound        // next step is the epoch's gossip round
)

// gossipMachine is one process's gossip state and its stepper.
type gossipMachine struct {
	plan  gossipPlan
	id    int
	done  *bitset.Set // view of done units, bits 1..n
	order gossipOrder // private unit order (immutable after build)
	peers []int32     // private peer rotation order (immutable after build)

	permIdx int   // order positions before this are all in done
	cursor  int   // rotation position of the next gossip window
	pending int   // unit emitted this epoch, confirmed done at the next step
	lap     int   // retirement epochs left once complete; -1 = still working
	phase   int   // gossipWorkRound or gossipSendRound
	to      []int // recipient scratch for window, fanout-sized

	arena *viewArena // publishes the rumors; shared with crash-recovery clones
}

// gossipSlabs is a gossip builder's slabs: each machine's struct with its
// publish arena, its done set with its words, its peer rotation and its
// recipient scratch.
type gossipSlabs struct {
	batcher
	boxes []gossipBox
	sets  []bitset.Set
	words []uint64
	peers []int32
	to    []int
}

// gossipBox keeps a machine's arena beside it, outside the struct.
type gossipBox struct {
	m     gossipMachine
	arena viewArena
}

// machine carves process id's machine, keys its unit order and draws its
// peer rotation: O(n/64 + t) per process.
func (sl *gossipSlabs) machine(pl gossipPlan, id int) *gossipMachine {
	sl.mu.Lock()
	if k := sl.next(); k > 0 {
		sl.boxes = make([]gossipBox, k)
		sl.sets = make([]bitset.Set, k)
		sl.words = make([]uint64, k*setWords(pl.n+1))
		sl.peers = make([]int32, k*(pl.t-1))
		sl.to = make([]int, k*pl.d)
	}
	box := &carve(&sl.boxes, 1)[0]
	done := &carve(&sl.sets, 1)[0]
	words := carve(&sl.words, setWords(pl.n+1))
	peers := carve(&sl.peers, pl.t-1)
	to := carve(&sl.to, pl.d)[:0]
	sl.mu.Unlock()
	*done = bitset.Over(words, pl.n+1, false)
	k := 0
	for p := 0; p < pl.t; p++ {
		if p != id {
			peers[k] = int32(p)
			k++
		}
	}
	seededShuffle(peers, gossipSeed(pl.seed, id, 0x70656572)) // "peer"
	box.m = gossipMachine{
		plan:  pl,
		id:    id,
		done:  done,
		order: newGossipOrder(pl.n, gossipSeed(pl.seed, id, 0x776f726b)), // "work"
		peers: peers,
		lap:   -1,
		to:    to,
		arena: &box.arena,
	}
	return &box.m
}

// observe confirms the previous epoch's emitted unit (reaching this step
// means the work action committed and the process outlived it) and merges
// every delivered rumor into the view.
func (m *gossipMachine) observe(msgs []sim.Message) {
	if m.pending > 0 {
		m.done.Add(m.pending)
		m.pending = 0
	}
	for i := range msgs {
		if r, ok := msgs[i].Payload.(*Rumor); ok {
			m.done.Union(r.Done)
		}
	}
}

// nextUnit returns the first unit of the private order not in the view, or
// 0 when the view is complete. The scan cursor only ever advances over done
// units, so a unit handed out but never confirmed is retried.
func (m *gossipMachine) nextUnit() int {
	for m.permIdx < m.plan.n {
		u := m.order.at(m.permIdx)
		if !m.done.Has(u) {
			return u
		}
		m.permIdx++
	}
	return 0
}

// retired starts the retirement lap on the first complete-view work round
// and reports whether the lap is over (time to halt).
func (m *gossipMachine) retired() bool {
	if m.lap < 0 {
		m.lap = m.plan.cover
	}
	return m.lap == 0
}

// lapTick burns one retirement epoch, counted at the gossip round.
func (m *gossipMachine) lapTick() {
	if m.lap > 0 {
		m.lap--
	}
}

// window returns the next fanout-many peers of the rotation and advances
// it. Consecutive positions of a ring walk, so any cover-many consecutive
// windows visit every peer.
func (m *gossipMachine) window() []int {
	k := len(m.peers)
	if k == 0 {
		return nil
	}
	to := m.to[:0]
	for i := 0; i < m.plan.d; i++ {
		to = append(to, int(m.peers[(m.cursor+i)%k]))
	}
	m.cursor = (m.cursor + m.plan.d) % k
	m.to = to
	return to
}

// Step implements sim.Stepper.
func (m *gossipMachine) Step(p *sim.Proc) sim.Yield {
	m.observe(p.Drain())
	if m.phase == gossipWorkRound {
		m.phase = gossipSendRound
		if u := m.nextUnit(); u > 0 {
			m.pending = u
			return workYield(u)
		}
		if m.retired() {
			return haltYield()
		}
		return idleYield()
	}
	m.phase = gossipWorkRound
	m.lapTick()
	return broadcastYield(p, m.window(), m.arena.rumor(m.done.Words()))
}

// Snapshot implements sim.Recoverable. The pending unit is deliberately
// dropped from the checkpoint: if the crash carried KeepWork=false the unit
// was never performed, and a restarted process that still believed in it
// would gossip a unit nobody did. Clearing it is sound in both cases — at
// worst the restarted process redoes one unit.
func (m *gossipMachine) Snapshot() any {
	cp := *m
	cp.done = m.done.Clone()
	cp.pending = 0
	cp.to = nil
	return &cp
}

// Restore implements sim.Recoverable.
func (m *gossipMachine) Restore(snap any) {
	s := snap.(*gossipMachine)
	done, to := m.done, m.to
	*m = *s
	m.done = done
	m.done.CopyFrom(s.done)
	m.to = to[:0]
}

var _ sim.Recoverable = (*gossipMachine)(nil)

// GossipSteppers builds the gossip protocol on the stepper substrate
// (crash-recoverable).
func GossipSteppers(cfg GossipConfig) (func(id int) sim.Stepper, error) {
	pl, err := planGossip(cfg)
	if err != nil {
		return nil, err
	}
	slabs := &gossipSlabs{batcher: batcher{t: cfg.T}}
	return func(id int) sim.Stepper { return slabs.machine(pl, id) }, nil
}

// GossipProcs builds a standalone gossip run on steppers.
func GossipProcs(cfg GossipConfig) (Procs, error) {
	st, err := GossipSteppers(cfg)
	return Procs{Steppers: st}, err
}
