package core

import "repro/internal/group"

// Worst-case round bounds exported for callers that must pick a
// "predetermined time by which the underlying work protocol is guaranteed to
// have terminated" (the §5 Byzantine agreement reduction) or a simulation
// round cap. All bounds use this reproduction's model-adjusted constants and
// saturate at sim.Forever.

// ProtocolARoundBound bounds the retirement round of every process in a
// Protocol A run started at round 0 (Theorem 2.3(c): nt + 3t² with paper
// constants).
func ProtocolARoundBound(n, t int) int64 {
	tm := newABTimeouts(n, t)
	return satMul(int64(t), tm.activeLife())
}

// ProtocolBRoundBound bounds the retirement round of every process in a
// Protocol B run started at round 0 (Theorem 2.8(c): 3n + 8t with paper
// constants): the chain performs at most n + 3t useful rounds plus the
// transition time of the last possible takeover plus one active lifetime.
func ProtocolBRoundBound(n, t int) int64 {
	tm := newABTimeouts(n, t)
	b := satAdd(int64(n)+3*int64(t), tm.tt(t-1, 0))
	return satAdd(b, tm.activeLife())
}

// ProtocolCRoundBound bounds the retirement round of every process in a
// Protocol C run started at round 0 (Theorem 3.8(c) / Corollary 3.9:
// t·K·(n+t)·2^(n+t)).
func ProtocolCRoundBound(n, t, reportEvery int) int64 {
	ct := newCTimeouts(n, t, reportEvery)
	return satMul(int64(t), satMul(ct.k, satMul(int64(n+t), pow2(n+t))))
}

// ProtocolDRoundBound bounds the retirement round of every process in a
// Protocol D run with at most f failures (Theorem 4.1: (f+1)n/t + 4f + 2,
// plus the Protocol A revert tail when more than half a phase's processes
// die).
func ProtocolDRoundBound(n, t, f int) int64 {
	w := int64(subchunkWidth(n, t))
	base := satAdd(satMul(int64(f+1), w), int64(4*f+2))
	return satAdd(base, ProtocolARoundBound(n, t))
}

// GossipFanout is the default gossip fanout: ⌈log₂ t⌉ + 1 peers per epoch,
// clamped to the t-1 that exist. 0 for a single process.
func GossipFanout(t int) int {
	if t <= 1 {
		return 0
	}
	d := group.CeilLog2(t) + 1
	if d > t-1 {
		d = t - 1
	}
	return d
}

// gossipCoverEpochs is the rotation cover time D = ⌈(t-1)/fanout⌉: any D
// consecutive gossip windows of one process reach every peer.
func gossipCoverEpochs(t int) int {
	d := GossipFanout(t)
	if d == 0 {
		return 0
	}
	return (t - 2 + d) / d
}

// gossipStale bounds the epochs a performed unit can stay unknown to any
// live peer: the cover time, one epoch for the confirm step, plus lag extra
// epochs of queueing delay when a bandwidth cap defers rumor transmissions
// (0 uncapped; 1 for caps of at least half the fanout, which drain each
// epoch's backlog within the next round).
func gossipStale(t, lag int) int64 {
	return int64(gossipCoverEpochs(t) + 2 + lag)
}

// GossipWorkBound bounds total work in a gossip run with at most f
// failures and rumor queueing lag (see gossipStale): every process performs
// only units missing from its view, so duplicated work is confined to the
// staleness window — W ≤ n + 3·(t+f)·stale — and a process never repeats a
// unit it confirmed, so W ≤ tn + f holds unconditionally (the +f covers
// restarted processes retrying their in-flight unit). The bound is the
// smaller of the two; the constant 3 is this reproduction's model-adjusted
// slack, certified over the X7 schedule spaces.
func GossipWorkBound(n, t, f, lag int) int64 {
	uncond := satAdd(satMul(int64(t), int64(n)), int64(f))
	windowed := satAdd(int64(n), satMul(3, satMul(int64(t+f), gossipStale(t, lag))))
	return min(uncond, windowed)
}

// GossipMessageBound bounds total messages: each live process sends at most
// fanout messages per epoch, and runs for at most work_i + stale + lap
// epochs, so M ≤ fanout · (W + t·(stale+D) + f).
func GossipMessageBound(n, t, f, lag int) int64 {
	d := int64(GossipFanout(t))
	epochs := satAdd(GossipWorkBound(n, t, f, lag),
		satAdd(satMul(int64(t), satAdd(gossipStale(t, lag), int64(gossipCoverEpochs(t)))), int64(f)))
	return satMul(d, epochs)
}

// GossipRoundBound bounds the retirement round of every process in a gossip
// run with at most f failures: a live process's view completes within
// n + f work epochs by its own work alone, the retirement lap adds D, and
// two rounds per epoch plus restart-delay slack gives
// 2·(f+1)·(n + D + lag + 4).
func GossipRoundBound(n, t, f, lag int) int64 {
	per := satMul(2, int64(n+gossipCoverEpochs(t)+lag+4))
	return satMul(int64(f+1), per)
}
