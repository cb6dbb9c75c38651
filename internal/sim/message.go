// Package sim implements a deterministic synchronous round simulator for
// message-passing systems with crash faults.
//
// The model follows Dwork, Halpern and Waarts ("Performing Work Efficiently in
// the Presence of Faults"): in every round a process may perform at most one
// unit of work, send messages (a broadcast), and receive messages. A message
// sent in round r is delivered at the beginning of round r+1. A process that
// crashes while broadcasting delivers its messages to an arbitrary subset of
// the recipients, chosen by the adversary.
//
// Processes are state machines (Stepper) that the engine steps by direct
// call in strict lock-step, so executions are fully deterministic. The
// engine fast-forwards
// over rounds in which every process is asleep, which makes protocols with
// exponential deadlines (Protocol C) executable.
package sim

import (
	"fmt"
	"reflect"
	"sync"
)

// Message is a point-to-point message as seen by the recipient.
type Message struct {
	From    int
	To      int
	SentAt  int64 // round in which the sender committed the send
	Payload any
}

// Send describes an outgoing message within an Action.
type Send struct {
	To      int
	Payload any
}

// Broadcast is the one-payload, many-recipient half of an Action. The DHW
// protocols are broadcast-shaped — one checkpoint or view goes to a whole
// group every round — so the engine stores a committed broadcast as a single
// shared record in the next-round buffer instead of one boxed Message per
// recipient; see Engine.commit.
//
// The recipient slice is referenced, not copied: it must not be mutated
// until the sending process is stepped again (Proc.BroadcastTo's scratch
// buffer and the protocols' immutable PID caches both satisfy this by
// construction). An empty To means no broadcast.
type Broadcast struct {
	To      []int
	Payload any
}

// Action is everything a process commits in a single round: at most one unit
// of work, any number of point-to-point sends, plus at most one broadcast.
// The zero Action is an idle round.
type Action struct {
	WorkUnit  int // 0 means no work; unit IDs are 1-based
	Sends     []Send
	Broadcast Broadcast
}

// SendCount returns the number of point-to-point messages the action
// transmits: the explicit sends plus one per broadcast recipient.
func (a Action) SendCount() int { return len(a.Sends) + len(a.Broadcast.To) }

// SendAt flattens the action's outgoing messages into one virtual list —
// the explicit sends first, then the broadcast expanded per recipient — and
// returns the i-th entry. Adversaries index Verdict.Deliver by this list, so
// a broadcast-native action and its per-send expansion receive identical
// crash verdicts (the plane-equivalence tests pin this down).
func (a Action) SendAt(i int) Send {
	if i < len(a.Sends) {
		return a.Sends[i]
	}
	return Send{To: a.Broadcast.To[i-len(a.Sends)], Payload: a.Broadcast.Payload}
}

// Kinder lets payloads report a short kind string for per-kind message
// accounting. Payloads that do not implement it are classified by their
// dynamic type.
type Kinder interface {
	Kind() string
}

// kindCache memoises the fmt.Sprintf("%T") string per dynamic type for
// payloads that do not implement Kinder, so counted sends stop formatting a
// fresh string each time. It is a sync.Map because engines run concurrently
// under the batch fan-out.
var kindCache sync.Map // map[reflect.Type]string

// payloadKind returns the payload's kind string — the Kinder result, or
// the dynamic type name — as used in Result.MessagesByKind.
func payloadKind(p any) string {
	if k, ok := p.(Kinder); ok {
		return k.Kind()
	}
	t := reflect.TypeOf(p)
	if s, ok := kindCache.Load(t); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%T", p)
	kindCache.Store(t, s)
	return s
}

// Status describes the lifecycle state of a simulated process.
type Status int

const (
	// StatusRunning means the process has neither crashed nor terminated.
	StatusRunning Status = iota + 1
	// StatusCrashed means the adversary crashed the process.
	StatusCrashed
	// StatusTerminated means the process halted voluntarily.
	StatusTerminated
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusCrashed:
		return "crashed"
	case StatusTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Forever is a deadline far enough in the future that it never fires; it is
// also the saturation value for overflow-prone deadline arithmetic.
const Forever int64 = 1 << 61
