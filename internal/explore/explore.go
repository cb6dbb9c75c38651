// Package explore is the schedule-space exploration subsystem: it treats a
// fault schedule as an explicit, replayable value — an adversary.Vector of
// (victim, trigger, fault-kind, delivery-mask) choices over the full fault
// alphabet (crash, crash-with-restart, send-omission, message drop, rate
// slowdown) — and spends simulator speed on walking the space of such
// vectors.
//
// Three entry points sit on the same universal adversary, adversary.Adversary:
//
//   - Enumerate DFS-walks every schedule of a Space (up to f crashes, bounded
//     action depth) for small (n, t), certifying the paper's effort bound,
//     the completion guarantee and the at-most-one-active invariant in every
//     single execution. Victim sets are enumerated as combinations (never
//     permutations — the vector is unordered by construction) and delivery
//     choices as prefixes of the crashed action's virtual send list, the two
//     canonicalizations that keep the space polynomial; executions that
//     coincide with a canonically smaller vector's (a planned crash that
//     never fires, a prefix past the real send count) are counted as
//     collapsed but still certified.
//   - Search runs seeded random sampling plus greedy hill-climbing over
//     decision vectors for instances too large to enumerate, maximizing
//     effort, rounds, messages or work, and reports the worst schedule found
//     as a replayable vector.
//   - Certify replays one vector and checks it against the target's bounds.
//
// Shards and candidate batches fan out deterministically via batch.Map over
// the pooled engines behind internal/core's run entry points, so reports are
// byte-identical for every worker count.
package explore

import "repro/internal/adversary"

// Aliases for adversary's fault plan types, which benchmark/ names as explore's.
type (
	Vector = adversary.Vector
	Choice = adversary.Choice
)
