package computation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/vclock"
)

// Builder constructs a Computation event by event, computing vector clocks
// as it goes. Methods that add events return the *Event so callers can
// attach labels and variable assignments fluently; Build validates and
// freezes the result.
//
// Events are carved from slabs that are never reallocated, so every *Event
// the builder returns stays valid and writable until Build, and is the
// pointer Computation.Event returns afterwards. A process costs O(1) until
// its first event or SetInitial; each event carries an n-wide clock.
//
// A Builder is not safe for concurrent use; callers recording from
// multiple goroutines must serialize access (package dist does exactly
// that).
type Builder struct {
	n       int
	events  [][]*Event       // events[i][k] is event (i, k+1)
	initial []map[string]int // nil until process i's first SetInitial
	sets    [][]assign       // per process, in Set order
	names   []string         // variable id → name
	ids     map[string]int32 // name → variable id
	sends   []*Event         // sends[id-1] is the send of message id
	recvs   []*Event         // recvs[id-1] is its receive, or nil
	slab    []Event          // unused tail of the current event slab
	arena   []int            // unused tail of the current clock chunk
	total   int              // events added
	err     error
	built   bool
}

// assign records that event k of a process set variable name to val.
type assign struct {
	k, name int32
	val     int
}

func byEvent(x, y assign) int { return cmp.Compare(x.k, y.k) }

const (
	slabMax   = 512     // events per slab once the builder has grown
	arenaInts = 1 << 16 // clock ints per chunk, unless one clock is wider
)

// Msg is an opaque handle for a message created by Send and consumed by
// Receive.
type Msg struct{ id int }

// NewBuilder returns a builder for a computation with n processes
// (numbered 0..n-1).
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("computation: builder needs at least one process")
	}
	return &Builder{
		n:       n,
		events:  make([][]*Event, n),
		initial: make([]map[string]int, n),
		sets:    make([][]assign, n),
	}
}

// SetInitial assigns the initial value of a variable on process i (local
// state 0). Variables not set initially default to 0 once first assigned.
func (b *Builder) SetInitial(i int, name string, value int) *Builder {
	b.checkProc(i)
	if b.initial[i] == nil {
		b.initial[i] = make(map[string]int)
	}
	b.initial[i][name] = value
	b.intern(name)
	return b
}

func (b *Builder) checkProc(i int) {
	if b.built {
		panic("computation: builder used after Build")
	}
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("computation: process %d out of range [0,%d)", i, b.n))
	}
}

func (b *Builder) intern(name string) int32 {
	id, ok := b.ids[name]
	if !ok {
		if b.ids == nil {
			b.ids = make(map[string]int32)
		}
		id = int32(len(b.names))
		b.names = append(b.names, name)
		b.ids[name] = id
	}
	return id
}

// addEvent appends an event to process i. Its clock starts as the clock
// of i's previous event, absorbs from (the send's clock, for a receive)
// and ticks i.
func (b *Builder) addEvent(i int, kind Kind, msg int, from vclock.VC) *Event {
	b.checkProc(i)
	chunk := min(max(b.total, 16), slabMax)
	if len(b.slab) == 0 {
		b.slab = make([]Event, chunk)
	}
	if len(b.arena) < b.n {
		b.arena = make([]int, max(b.n, min(chunk*b.n, arenaInts)))
	}
	e := &b.slab[0]
	b.slab = b.slab[1:]
	clock := vclock.VC(b.arena[:b.n:b.n])
	b.arena = b.arena[b.n:]
	evs := b.events[i]
	if len(evs) > 0 {
		copy(clock, evs[len(evs)-1].Clock)
	}
	if from != nil {
		clock.MergeInto(from)
	}
	clock.Tick(i)
	*e = Event{Proc: i, Index: len(evs) + 1, Kind: kind, Msg: msg, Clock: clock, b: b}
	b.events[i] = append(evs, e)
	b.total++
	return e
}

// Internal appends an internal event on process i.
func (b *Builder) Internal(i int) *Event {
	return b.addEvent(i, Internal, 0, nil)
}

// Send appends a send event on process i and returns the event and a
// message handle to pass to Receive. Messages are numbered 1, 2, … in
// Send order.
func (b *Builder) Send(i int) (*Event, Msg) {
	e := b.addEvent(i, Send, len(b.sends)+1, nil)
	b.sends = append(b.sends, e)
	b.recvs = append(b.recvs, nil)
	return e, Msg{e.Msg}
}

// Receive appends a receive event on process i consuming message m. The
// receiver's clock absorbs the sender's clock at the send event. Receiving
// a message twice, an unknown message, or a message on the sending process
// records an error reported by Build.
func (b *Builder) Receive(i int, m Msg) *Event {
	b.checkProc(i)
	if m.id < 1 || m.id > len(b.sends) {
		b.fail(fmt.Errorf("receive of unknown message %d on process %d", m.id, i))
		return b.addEvent(i, Receive, m.id, nil)
	}
	s := b.sends[m.id-1]
	if b.recvs[m.id-1] != nil {
		b.fail(fmt.Errorf("message %d received twice", m.id))
	}
	if s.Proc == i {
		b.fail(fmt.Errorf("message %d received by its sender P%d", m.id, i+1))
	}
	e := b.addEvent(i, Receive, m.id, s.Clock)
	b.recvs[m.id-1] = e
	return e
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// WithLabel sets the label of e and returns e.
func WithLabel(e *Event, label string) *Event {
	e.Label = label
	return e
}

// Set records a variable assignment performed by event e and returns e;
// of several assignments of one name by one event, the last wins. e must
// come from a Builder that has not been built yet: Set panics otherwise.
// Set records into that Builder, so it is serialized like its methods.
func Set(e *Event, name string, value int) *Event {
	b := e.b
	if b == nil || b.built {
		panic("computation: Set on an event of a built computation")
	}
	b.sets[e.Proc] = append(b.sets[e.Proc], assign{k: int32(e.Index), name: b.intern(name), val: value})
	return e
}

// Build validates the accumulated events and returns the immutable
// computation. The builder cannot be used afterwards.
func (b *Builder) Build() (*Computation, error) {
	if b.err != nil {
		return nil, fmt.Errorf("computation: %w", b.err)
	}
	if b.built {
		panic("computation: builder used after Build")
	}
	c := &Computation{
		events:     b.events,
		vals:       make([]map[string][]int, b.n),
		varsByProc: make([][]string, b.n),
		flow:       make([][]int32, b.n),
		sets:       b.sets,
		names:      b.names,
		sends:      b.sends,
		recvs:      b.recvs,
	}
	col := make([]int32, len(b.names))
	for id := range col {
		col[id] = -1
	}
	for i := range b.n {
		b.fill(c, i, col)
	}
	// The events keep pointing here, so let go of everything else.
	*b = Builder{built: true}
	return c, nil
}

// fill materializes process i's message flow and valuation columns so
// that InFlight is O(n) and Value O(1). col maps a variable id to its
// column on i and is all -1 between calls.
func (b *Builder) fill(c *Computation, i int, col []int32) {
	evs, recs, init := b.events[i], b.sets[i], b.initial[i]
	if len(evs) > 0 {
		flow := make([]int32, len(evs))
		var f int32
		for k, e := range evs {
			switch e.Kind {
			case Send:
				f++
			case Receive:
				f--
			}
			flow[k] = f
		}
		c.flow[i] = flow
	}
	if len(recs) == 0 && len(init) == 0 {
		return // no variables: Vars and Value see nil
	}
	if !slices.IsSortedFunc(recs, byEvent) {
		slices.SortStableFunc(recs, byEvent)
	}
	var ids []int32
	for _, r := range recs {
		if col[r.name] < 0 {
			col[r.name] = 0
			ids = append(ids, r.name)
		}
	}
	for name := range init {
		if id := b.ids[name]; col[id] < 0 {
			col[id] = 0
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(x, y int32) int { return strings.Compare(b.names[x], b.names[y]) })

	width := len(evs) + 1
	buf := make([]int, len(ids)*width)
	vars := make([]string, len(ids))
	cols := make(map[string][]int, len(ids))
	for j, id := range ids {
		col[id] = int32(j)
		vars[j] = b.names[id]
		cj := buf[j*width : (j+1)*width : (j+1)*width]
		cj[0] = init[vars[j]]
		cols[vars[j]] = cj
	}
	// One forward pass over the states: each carries the previous state's
	// values, then the records of the event that reached it override them.
	r := 0
	for k := 1; k < width; k++ {
		for j := range ids {
			buf[j*width+k] = buf[j*width+k-1]
		}
		for ; r < len(recs) && int(recs[r].k) == k; r++ {
			buf[int(col[recs[r].name])*width+k] = recs[r].val
		}
	}
	for _, id := range ids {
		col[id] = -1
	}
	c.vals[i] = cols
	c.varsByProc[i] = vars
}

// MustBuild is Build that panics on error, for tests and fixed fixtures.
func (b *Builder) MustBuild() *Computation {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}
