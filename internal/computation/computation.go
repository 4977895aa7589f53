package computation

import (
	"cmp"
	"fmt"
	"slices"
)

// Computation is an immutable happened-before model (E, →) of a single
// execution of a distributed program, together with the per-event local
// variable valuations the paper's predicates are evaluated over.
//
// Local states: process i is in local state k (0 ≤ k ≤ Len(i)) after
// executing its first k events; state 0 is the initial state. A Cut c puts
// process i in local state c[i].
type Computation struct {
	events     [][]*Event         // events[i][k] is event (i, k+1)
	vals       []map[string][]int // vals[i][name][k] = value of name in state k of process i
	varsByProc [][]string         // sorted variable names known to each process
	flow       [][]int32          // flow[i][k-1] = sends minus receives among i's first k events
	sets       [][]assign         // assignment records per process, by event index
	names      []string           // assign.name → variable name
	sends      []*Event           // sends[id-1] is the send of message id (nil outside a prefix)
	recvs      []*Event           // recvs[id-1] is its receive, nil if not received
}

// N returns the number of processes.
func (c *Computation) N() int { return len(c.events) }

// Len returns the number of events of process i.
func (c *Computation) Len(i int) int { return len(c.events[i]) }

// TotalEvents returns |E|.
func (c *Computation) TotalEvents() int {
	total := 0
	for _, evs := range c.events {
		total += len(evs)
	}
	return total
}

// Event returns event (i, k), k being 1-based. It panics on out-of-range
// arguments.
func (c *Computation) Event(i, k int) *Event {
	return c.events[i][k-1]
}

// Events returns the event sequence of process i. The returned slice must
// not be modified.
func (c *Computation) Events(i int) []*Event { return c.events[i] }

// Messages returns the ids of all messages in the computation in
// ascending order.
func (c *Computation) Messages() []int {
	ids := make([]int, 0, len(c.sends))
	for j, s := range c.sends {
		if s != nil {
			ids = append(ids, j+1)
		}
	}
	return ids
}

// MaxMsg bounds the message ids: every id is in 1..MaxMsg, and ids of a
// prefix whose send it does not contain have a nil SendOf. Scanning ids in
// that range visits messages in ascending order without allocating.
func (c *Computation) MaxMsg() int { return len(c.sends) }

// SendOf returns the send event of message id, or nil.
func (c *Computation) SendOf(id int) *Event {
	if id < 1 || id > len(c.sends) {
		return nil
	}
	return c.sends[id-1]
}

// RecvOf returns the receive event of message id, or nil if the message is
// never received.
func (c *Computation) RecvOf(id int) *Event {
	if id < 1 || id > len(c.recvs) {
		return nil
	}
	return c.recvs[id-1]
}

// HappenedBefore reports e → f (strict).
func (c *Computation) HappenedBefore(e, f *Event) bool {
	if e == f {
		return false
	}
	return e.Clock[e.Proc] <= f.Clock[e.Proc] && !(e.Proc == f.Proc && e.Index >= f.Index)
}

// Concurrent reports that neither e → f nor f → e.
func (c *Computation) Concurrent(e, f *Event) bool {
	return e != f && !c.HappenedBefore(e, f) && !c.HappenedBefore(f, e)
}

// Value returns the value of variable name in local state k of process i,
// and whether the variable is defined for that process.
func (c *Computation) Value(i, k int, name string) (int, bool) {
	col, ok := c.vals[i][name]
	if !ok {
		return 0, false
	}
	return col[k], true
}

// Column returns the values of variable name in local states 0..Len(i) of
// process i, and whether the variable is defined for that process. The
// returned slice must not be modified.
func (c *Computation) Column(i int, name string) ([]int, bool) {
	col, ok := c.vals[i][name]
	return col, ok
}

// Vars returns the sorted variable names defined on process i.
func (c *Computation) Vars(i int) []string { return c.varsByProc[i] }

// AppendAssignments appends the variable assignments event e performed to
// dst, in name order and one per variable (the last Set of a name wins),
// and returns the extended slice. It is for the cold readers — encoding,
// rendering, replay; detection reads Value.
func (c *Computation) AppendAssignments(dst []Assignment, e *Event) []Assignment {
	recs := c.sets[e.Proc]
	k := int32(e.Index)
	lo, _ := slices.BinarySearchFunc(recs, k, func(r assign, k int32) int { return cmp.Compare(r.k, k) })
	start := len(dst)
	for _, r := range recs[lo:] {
		if r.k != k {
			break
		}
		a := Assignment{Name: c.names[r.name], Value: r.val}
		j := start
		for j < len(dst) && dst[j].Name < a.Name {
			j++
		}
		if j < len(dst) && dst[j].Name == a.Name {
			dst[j].Value = a.Value
			continue
		}
		dst = slices.Insert(dst, j, a)
	}
	return dst
}

// InitialCut returns ∅, the empty cut.
func (c *Computation) InitialCut() Cut { return NewCut(c.N()) }

// FinalCut returns E, the cut containing every event.
func (c *Computation) FinalCut() Cut {
	f := NewCut(c.N())
	for i := range c.events {
		f[i] = len(c.events[i])
	}
	return f
}

// InRange reports that c is a syntactically valid cut for this computation
// (correct length, counters within bounds). It says nothing about
// consistency.
func (comp *Computation) InRange(c Cut) bool {
	if len(c) != comp.N() {
		return false
	}
	for i, x := range c {
		if x < 0 || x > comp.Len(i) {
			return false
		}
	}
	return true
}

// Consistent reports whether c is a consistent cut: for every included
// event, all events that happened-before it are included too.
func (comp *Computation) Consistent(c Cut) bool {
	if !comp.InRange(c) {
		return false
	}
	for i, k := range c {
		if k == 0 {
			continue
		}
		clock := comp.events[i][k-1].Clock
		for j, need := range clock {
			if need > c[j] {
				return false
			}
		}
	}
	return true
}

// EnabledEvent reports whether the next event of process i (event
// (i, c[i]+1)) can be added to c while keeping it consistent.
func (comp *Computation) EnabledEvent(c Cut, i int) bool {
	k := c[i]
	if k >= comp.Len(i) {
		return false
	}
	clock := comp.events[i][k].Clock
	for j, need := range clock {
		if j != i && need > c[j] {
			return false
		}
	}
	return true
}

// Enabled returns the processes whose next event is enabled at c, in
// ascending order. These determine the successors of c in the lattice.
func (comp *Computation) Enabled(c Cut) []int {
	var out []int
	for i := range c {
		if comp.EnabledEvent(c, i) {
			out = append(out, i)
		}
	}
	return out
}

// Successors returns the cuts H with c ▷ H.
func (comp *Computation) Successors(c Cut) []Cut {
	var out []Cut
	for _, i := range comp.Enabled(c) {
		h := c.Copy()
		h[i]++
		out = append(out, h)
	}
	return out
}

// MaximalEvent reports whether the last included event of process i (event
// (i, c[i])) is maximal in the cut, i.e. removable while keeping the cut
// consistent.
func (comp *Computation) MaximalEvent(c Cut, i int) bool {
	k := c[i]
	if k == 0 {
		return false
	}
	// Event (i,k) is maximal iff no other included event causally follows
	// it; it suffices to check the last included event of each process.
	for j, m := range c {
		if j == i || m == 0 {
			continue
		}
		if comp.events[j][m-1].Clock[i] >= k {
			return false
		}
	}
	return true
}

// Frontier returns the maximal events of cut c with respect to
// happened-before, in process order.
func (comp *Computation) Frontier(c Cut) []*Event {
	var out []*Event
	for i, k := range c {
		if k > 0 && comp.MaximalEvent(c, i) {
			out = append(out, comp.events[i][k-1])
		}
	}
	return out
}

// Predecessors returns the cuts G with G ▷ c.
func (comp *Computation) Predecessors(c Cut) []Cut {
	var out []Cut
	for i := range c {
		if comp.MaximalEvent(c, i) {
			g := c.Copy()
			g[i]--
			out = append(out, g)
		}
	}
	return out
}

// DownSet returns ↓e, the least consistent cut containing event e. By the
// vector-clock characterization this is exactly e's clock read as a cut;
// these cuts are the join-irreducible elements of the lattice.
func (comp *Computation) DownSet(e *Event) Cut {
	return Cut(e.Clock.Copy())
}

// UpSetComplement returns E − ↑e, the greatest consistent cut not
// containing event e; these cuts are the meet-irreducible elements of the
// lattice (Birkhoff). Component j counts the events of process j that e
// does not happen-before (and that are not e itself).
func (comp *Computation) UpSetComplement(e *Event) Cut {
	m := NewCut(comp.N())
	for j := range m {
		if j == e.Proc {
			m[j] = e.Index - 1
			continue
		}
		// Events of process j that causally know e form a suffix; find the
		// first one with Clock[e.Proc] ≥ e.Index by binary search.
		evs := comp.events[j]
		lo, hi := 0, len(evs)
		for lo < hi {
			mid := (lo + hi) / 2
			if evs[mid].Clock[e.Proc] >= e.Index {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		m[j] = lo
	}
	return m
}

// CompatibleStates reports whether local states (i, k) and (j, k') can
// belong to a common consistent cut.
func (comp *Computation) CompatibleStates(i, k, j, kp int) bool {
	if i == j {
		return k == kp
	}
	// The least cut containing exactly k events of i and k' of j exists iff
	// neither state causally requires more of the other process.
	if kp > 0 && comp.events[j][kp-1].Clock[i] > k {
		return false
	}
	if k > 0 && comp.events[i][k-1].Clock[j] > kp {
		return false
	}
	return true
}

// InFlight returns the number of messages sent but not yet received at the
// consistent cut c (messages never received count while their send is
// included). It is O(n): a consistent cut contains the send of every
// receive it contains, so the count is the sum over processes of sends
// minus receives among their included events.
func (comp *Computation) InFlight(c Cut) int {
	n := 0
	for i, k := range c {
		if k > 0 {
			n += int(comp.flow[i][k-1])
		}
	}
	return n
}

// ChannelsEmpty reports that no message is in flight at the consistent cut
// c, in O(n).
func (comp *Computation) ChannelsEmpty(c Cut) bool { return comp.InFlight(c) == 0 }

// Prefix returns the sub-computation containing exactly the events of the
// consistent cut c. The result shares storage with the original. It panics
// if c is not consistent: a non-consistent prefix would contain receives
// without their sends.
func (comp *Computation) Prefix(c Cut) *Computation {
	if !comp.Consistent(c) {
		panic(fmt.Sprintf("computation: Prefix of inconsistent cut %v", c))
	}
	sub := &Computation{
		events:     make([][]*Event, comp.N()),
		vals:       make([]map[string][]int, comp.N()),
		varsByProc: comp.varsByProc,
		flow:       make([][]int32, comp.N()),
		sets:       comp.sets,
		names:      comp.names,
		sends:      make([]*Event, len(comp.sends)),
		recvs:      make([]*Event, len(comp.recvs)),
	}
	for i, k := range c {
		sub.events[i] = comp.events[i][:k]
		sub.flow[i] = comp.flow[i][:k]
		cols := make(map[string][]int, len(comp.vals[i]))
		for name, col := range comp.vals[i] {
			cols[name] = col[:k+1]
		}
		sub.vals[i] = cols
		for _, e := range sub.events[i] {
			switch e.Kind {
			case Send:
				sub.sends[e.Msg-1] = e
			case Receive:
				sub.recvs[e.Msg-1] = e
			}
		}
	}
	return sub
}

// SomeLinearization returns one maximal consistent cut sequence
// ∅ = G0 ▷ G1 ▷ … ▷ Gl = E, choosing at each step the enabled event of the
// lowest-numbered process. Observer-independent predicates can be detected
// by examining any single such observation.
func (comp *Computation) SomeLinearization() []Cut {
	cur := comp.InitialCut()
	seq := []Cut{cur.Copy()}
	for _, e := range comp.Linearization() {
		cur[e.Proc]++
		seq = append(seq, cur.Copy())
	}
	return seq
}

// Linearization returns the events in SomeLinearization's order — at each
// step the enabled event of the lowest-numbered process — in O(|E|) words.
// Along the walk the cut stays consistent, so a process's next event is
// enabled exactly when it is not a receive or its send is already in.
func (comp *Computation) Linearization() []*Event {
	cur := make([]int, comp.N())
	enabled := func(i int) bool {
		if cur[i] == len(comp.events[i]) {
			return false
		}
		if e := comp.events[i][cur[i]]; e.Kind == Receive {
			s := comp.SendOf(e.Msg)
			return cur[s.Proc] >= s.Index
		}
		return true
	}
	out := make([]*Event, 0, comp.TotalEvents())
	for len(out) < cap(out) {
		i := 0
		for i < len(cur) && !enabled(i) {
			i++
		}
		if i == len(cur) {
			// Cannot happen in a valid computation: some minimal event of
			// the remainder is always enabled.
			panic("computation: no enabled event before reaching the final cut")
		}
		out = append(out, comp.events[i][cur[i]])
		cur[i]++
	}
	return out
}
