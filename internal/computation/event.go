// Package computation implements the happened-before model of a distributed
// computation: a finite set of events per process, partially ordered by
// Lamport's happened-before relation, together with the algebra of
// consistent cuts (global states) that all predicate-detection algorithms
// operate on.
//
// A computation is immutable once built. Use Builder to construct one, or
// the trace package to load one from disk.
//
// Storage is flat: events come from fixed-size slabs and their clocks
// from a chunked int arena, so building allocates per chunk rather than per
// event; variable assignments are per-process (event, variable, value)
// records, from which Build fills each valuation column in one pass.
package computation

import (
	"fmt"

	"repro/internal/vclock"
)

// Kind classifies an event.
type Kind int

const (
	// Internal events neither send nor receive a message.
	Internal Kind = iota
	// Send events emit exactly one message.
	Send
	// Receive events consume exactly one message.
	Receive
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Internal:
		return "internal"
	case Send:
		return "send"
	case Receive:
		return "receive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is a single event of a computation. Events are identified by
// (Proc, Index) where Index is 1-based within the process; the pair is
// stable across sub-computation restriction.
type Event struct {
	// Proc is the 0-based index of the process executing the event.
	Proc int
	// Index is the 1-based position of the event on its process.
	Index int
	// Kind says whether the event is internal, a send, or a receive.
	Kind Kind
	// Msg is the message id for Send and Receive events (sends and their
	// matching receives share the id); 0 for internal events.
	Msg int
	// Clock is the vector clock of the event: Clock[j] is the number of
	// events of process j that happened-before or equal this event.
	Clock vclock.VC
	// Label is an optional human-readable name such as "e1" used when
	// reproducing the paper's figures.
	Label string

	// b is the builder that created the event, which records the event's
	// variable assignments (Set) until Build.
	b *Builder
}

// Assignment is one variable assignment performed by an event; the local
// state after the event is the previous one overridden by its assignments.
// Record them with Set, read them back with Computation.AppendAssignments.
type Assignment struct {
	Name  string
	Value int
}

// String renders the event compactly, preferring its label when present.
func (e *Event) String() string {
	if e.Label != "" {
		return e.Label
	}
	return fmt.Sprintf("P%d:%d(%s)", e.Proc+1, e.Index, e.Kind)
}
