// Package online implements on-line (incremental) predicate detection —
// the paper's stated future work ("another area of future work will be to
// develop efficient on-line versions of our algorithms").
//
// A Monitor consumes the events of an unfolding computation as they are
// observed (in a causally consistent order: receives after their sends)
// and drives incremental detectors:
//
//   - EFConjunctive — the queue-based weak conjunctive predicate detection
//     of Garg and Waldecker: one queue of candidate local states per
//     constrained process, pairwise head elimination by vector clock,
//     verdict the moment a satisfying consistent cut exists. O(n²m) total
//     work for m events, no recomputation per event.
//   - AGConjunctive — invariant violation detection for conjunctive
//     predicates: a violation exists as soon as some conjunct is false in
//     some local state, because every local state is exposed by a
//     consistent cut.
//   - Stable — evaluates a frontier predicate after every event; for
//     stable predicates the frontier observation is equivalent to global
//     detection (Chandy–Lamport).
//
// Verdicts latch: once fired they remain fired in every extension of the
// observed prefix (EF and violation verdicts are monotone under prefix
// extension). For the non-monotone operators (EG, AG as a final verdict,
// until), Snapshot materializes the current prefix as a Computation for
// the offline algorithms in package core.
package online

import (
	"fmt"
	"time"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/vclock"
)

// Monitor ingests events of an unfolding computation.
type Monitor struct {
	n      int
	clocks []vclock.VC // running clock per process
	lens   []int       // events observed per process
	events int         // sum of lens

	// Valuations are dense: a variable name is interned to a slot on first
	// sight (one map probe per assignment; bound conjuncts never probe) and
	// vals[proc][slot] is its current value, every row len(names) long, an
	// unassigned variable reading 0. The table is the monitor's own: wire
	// indices restart with every connection and log entry, the monitor
	// outlives them.
	slots map[string]int
	names []string // slot → name
	vals  [][]int
	row   []pir.VarSet // scratch of the map-taking Internal/Send/Receive
	// start is the clock of the event being stepped — the one that began
	// its process's current local state — copied on the first startClock
	// request within the step and shared read-only by every watch that
	// asks. Nil until a watch asks; reset by each step.
	start vclock.VC

	// sends holds every message ever sent, keyed by the id its sender
	// gave it (see sendInfo); maxMsg is the largest of those ids, so the
	// ids Send picks never collide with ids a caller chose.
	sends    map[int]sendInfo
	maxMsg   int
	inFlight int

	// rec is the replay record Snapshot materializes: one row per event
	// and per SetInitial (an EvInit row), append-only, in observation
	// order, with wire (1-based) process ids and the senders' message ids.
	// Never populated in bounded mode.
	// The columns bound message ids to int32 (Apply rejects the rest) and
	// one monitor to 2³²-1 assignments in total (SetOff is uint32); the
	// record outgrows memory long before the latter.
	rec pir.Batch

	// bounded, when set, drops rec: the monitor keeps only the frontier
	// (current clocks, valuations, in-flight sends) plus each watch's slice
	// cursor, so a long-lived session holds O(n + slice) state instead of
	// O(|E|). Snapshot — and with it Detect — is unavailable.
	bounded bool

	// efOn[p] and agOn[p] are the watches still awaiting a verdict that
	// constrain process p, in registration order: an event on p notifies
	// only those, and a watch that latches leaves every list.
	efOn          [][]efPending
	agOn          [][]agPending
	stableWatches []*StableWatch
	watches       int // watches registered
	latched       int // of those, verdicts latched (EF fired, AG violated, stable fired)
	queued        int // candidates held by the EF watches' cursors

	met *monMetrics // nil unless Instrument was called
}

// sendInfo is the monitor's entry for one sent message. clock is the
// send event's clock while the message is in flight and nil once it has
// been received, so the table holds a clock per in-flight message and
// only a tombstone (telling "received twice" from "unknown message") per
// delivered one.
type sendInfo struct {
	proc  int
	clock vclock.VC
}

// NewMonitor returns a monitor for n processes.
func NewMonitor(n int) *Monitor {
	if n <= 0 {
		panic("online: need at least one process")
	}
	m := &Monitor{
		n:      n,
		clocks: make([]vclock.VC, n),
		lens:   make([]int, n),
		slots:  make(map[string]int),
		vals:   make([][]int, n),
		sends:  make(map[int]sendInfo),
		efOn:   make([][]efPending, n),
		agOn:   make([][]agPending, n),
	}
	for i := 0; i < n; i++ {
		m.clocks[i] = vclock.New(n)
	}
	return m
}

// slot returns the valuation column of name, interning it on first sight.
func (m *Monitor) slot(name string) int {
	s, ok := m.slots[name]
	if !ok {
		s = len(m.names)
		m.slots[name] = s
		m.names = append(m.names, name)
		for i := range m.vals {
			m.vals[i] = append(m.vals[i], 0)
		}
	}
	return s
}

// NewBoundedMonitor returns a monitor that retains bounded state: the
// frontier plus the watches' slice cursors, never the observed prefix.
// Watch verdicts (and their cuts) are bit-identical to an unbounded
// monitor fed the same stream — the incremental detectors only ever read
// the current state's clock, which the frontier provides — but Snapshot
// and Detect panic, since the prefix they would materialize is gone.
func NewBoundedMonitor(n int) *Monitor {
	m := NewMonitor(n)
	m.bounded = true
	return m
}

// N returns the number of processes.
func (m *Monitor) N() int { return m.n }

// Bounded reports whether the monitor runs in bounded-state mode.
func (m *Monitor) Bounded() bool { return m.bounded }

// Retained returns the events' worth of state the monitor currently
// holds: the recorded prefix when unbounded, or the candidates queued in
// the watches' slice cursors when bounded — the measured per-session
// retained-state bound.
func (m *Monitor) Retained() int {
	if !m.bounded {
		return m.events
	}
	return m.queued
}

// Latched returns how many watch verdicts have latched so far (EF fired,
// AG violated, stable fired). It only grows, so a caller polling the
// watches after every event can skip the scan while it has not moved.
func (m *Monitor) Latched() int { return m.latched }

// startClock returns the vector clock of the event that began proc's
// current local state (nil for state 0, which began at -∞). Watches only
// ever ask about the process whose event is being stepped, so that is the
// running clock; it is copied once per step, on the first request, and
// every watch that asks shares the copy read-only.
func (m *Monitor) startClock(proc int) vclock.VC {
	if m.lens[proc] == 0 {
		return nil
	}
	if m.start == nil {
		m.start = m.clocks[proc].Copy()
	}
	return m.start
}

// checkProc panics when proc is not a valid process index. Passing an
// out-of-range process to the map-taking observation methods and the
// accessors is a programming error (the index is the caller's own loop
// variable); Apply, which takes untrusted rows, returns it as an error.
func (m *Monitor) checkProc(proc int) {
	if proc < 0 || proc >= m.n {
		panic(fmt.Sprintf("online: process %d out of range [0,%d)", proc, m.n))
	}
}

// Events returns the number of events observed so far.
func (m *Monitor) Events() int { return m.events }

// EventsOn returns the number of events observed on one process. It
// panics when proc is out of range.
func (m *Monitor) EventsOn(proc int) int {
	m.checkProc(proc)
	return m.lens[proc]
}

// Value returns the current value of a variable on a process (0 for a
// name never assigned). It panics when proc is out of range.
func (m *Monitor) Value(proc int, name string) int {
	m.checkProc(proc)
	if s, ok := m.slots[name]; ok {
		return m.vals[proc][s]
	}
	return 0
}

// InFlight returns the number of messages currently in flight.
func (m *Monitor) InFlight() int { return m.inFlight }

// SetInitial sets an initial variable value. It panics when proc is out
// of range or after the first event of the process has been observed.
func (m *Monitor) SetInitial(proc int, name string, value int) {
	m.checkProc(proc)
	if m.lens[proc] > 0 {
		panic("online: SetInitial after events were observed")
	}
	s := m.slot(name) // may grow the rows: index after, not before
	m.vals[proc][s] = value
	if !m.bounded {
		m.rec.AddInit(proc+1, name, value)
	}
}

// rowOf adapts the map-taking Internal, Send and Receive to the row the
// monitor steps on, in a reused scratch slice (map order: the names are
// distinct, so order is immaterial).
func (m *Monitor) rowOf(sets map[string]int) []pir.VarSet {
	m.row = m.row[:0]
	for name, v := range sets {
		m.row = append(m.row, pir.VarSet{Name: name, Val: v})
	}
	return m.row
}

// Internal observes an internal event on proc with the given variable
// assignments (may be nil). It panics when proc is out of range.
func (m *Monitor) Internal(proc int, sets map[string]int) {
	m.checkProc(proc)
	m.Apply(proc, pir.EvInternal, 0, m.rowOf(sets)) //nolint:errcheck // an internal row in range has nothing to reject
}

// Send observes a send event and returns the message id, one above every
// id sent so far, to pass to the matching Receive. It panics when proc is
// out of range, or when the id would leave the int32 range.
func (m *Monitor) Send(proc int, sets map[string]int) int {
	m.checkProc(proc)
	id := m.maxMsg + 1
	if err := m.Apply(proc, pir.EvSend, id, m.rowOf(sets)); err != nil {
		panic("online: " + err.Error())
	}
	return id
}

// Receive observes the receipt of message id on proc; see Apply for the
// errors. It panics when proc is out of range.
func (m *Monitor) Receive(proc int, id int, sets map[string]int) error {
	m.checkProc(proc)
	return m.Apply(proc, pir.EvReceive, id, m.rowOf(sets))
}

// Rejection texts (fmt formats) for an event row that cannot be admitted,
// shared with hbserver's frame-to-row conversion so a condition reads the
// same whichever encoding carried the event.
const (
	RejectProcRange  = "process %d outside [1,%d]"
	RejectUnknownMsg = "receive of unknown message %d (dropped or unsent)"
	RejectMsgRange   = "message id %d outside the int32 range"
)

// Apply observes one event row, the one place an event is admitted: kind
// is pir.EvInternal, EvSend or EvReceive, msg the id the sender gave the
// message (ignored on an internal event), and sets are applied in order
// (the last assignment to a name wins) and not retained. A row it cannot
// admit is returned as an error, in this order of checks: a process out
// of range, another kind, a send reusing an id or leaving the int32
// range, a receive of an unknown message, of one received already, or on
// its sender's process. A rejected row leaves the monitor untouched, and
// Apply never panics. The texts are hbserver's wire rejections.
func (m *Monitor) Apply(proc int, kind byte, msg int, sets []pir.VarSet) error {
	if proc < 0 || proc >= m.n {
		return fmt.Errorf(RejectProcRange, proc+1, m.n)
	}
	switch kind {
	case pir.EvInternal:
		m.step(proc, kind, 0, sets)
	case pir.EvSend:
		if _, dup := m.sends[msg]; dup {
			return fmt.Errorf("message %d sent twice", msg)
		}
		if msg != int(int32(msg)) {
			return fmt.Errorf(RejectMsgRange, msg)
		}
		// In flight from the send event on: a stable watch observed at
		// the send must see the message in the channel.
		m.inFlight++
		m.maxMsg = max(m.maxMsg, msg)
		m.step(proc, kind, msg, sets)
		m.sends[msg] = sendInfo{proc: proc, clock: m.clocks[proc].Copy()}
	case pir.EvReceive:
		s, ok := m.sends[msg]
		switch {
		case !ok:
			return fmt.Errorf(RejectUnknownMsg, msg)
		case s.clock == nil:
			return fmt.Errorf("online: message %d received twice", msg)
		case s.proc == proc:
			return fmt.Errorf("online: message %d received by its sender", msg)
		}
		m.clocks[proc].MergeInto(s.clock)
		m.sends[msg] = sendInfo{proc: s.proc}
		m.inFlight--
		m.step(proc, kind, msg, sets)
	default:
		return fmt.Errorf("unknown event kind %d", kind)
	}
	return nil
}

func (m *Monitor) step(proc int, kind byte, msg int, sets []pir.VarSet) {
	var start time.Time
	if m.met != nil {
		start = time.Now()
	}
	m.clocks[proc].Tick(proc)
	m.lens[proc]++
	m.events++
	for _, vs := range sets {
		s := m.slot(vs.Name)
		m.vals[proc][s] = vs.Val
	}
	m.start = nil
	if !m.bounded {
		m.rec.AddRow(proc+1, kind, msg, sets)
	}

	// Notify the pending watches constrained on proc of its new local
	// state. An event elsewhere can neither offer one a candidate nor
	// leave its cursor dirty (Step always runs to the fixed point).
	before := m.latched
	vals := m.vals[proc]
	for _, e := range m.efOn[proc] {
		if firstFalse(e.conj, vals) < 0 {
			e.w.offer(m, proc)
		}
	}
	for _, e := range m.agOn[proc] {
		if i := firstFalse(e.conj, vals); i >= 0 {
			e.w.violate(m, proc, e.conj[i])
		}
	}
	if m.latched != before {
		m.dropLatched()
	}
	for _, w := range m.stableWatches {
		w.observe(m)
	}

	if m.met != nil {
		m.met.events.Inc()
		m.refreshGauges()
		m.met.ingestDur.Observe(time.Since(start).Seconds())
	}
}

// Snapshot materializes the observed prefix as an immutable Computation
// for the offline algorithms. Cost is proportional to the prefix length.
// It panics on a bounded monitor, whose whole point is not retaining that
// prefix; callers offering snapshots (hbserver) must reject the request
// instead.
func (m *Monitor) Snapshot() *computation.Computation {
	if m.bounded {
		panic("online: Snapshot unavailable on a bounded monitor (prefix not retained)")
	}
	b := computation.NewBuilder(m.n)
	handles := make(map[int]computation.Msg)
	r := &m.rec
	for i, n := 0, r.Len(); i < n; i++ {
		proc := int(r.Procs[i]) - 1
		var e *computation.Event
		switch r.Kinds[i] {
		case pir.EvInit:
			vs := r.Sets[r.SetOff[i]]
			b.SetInitial(proc, vs.Name, vs.Val)
			continue
		case pir.EvInternal:
			e = b.Internal(proc)
		case pir.EvSend:
			var h computation.Msg
			e, h = b.Send(proc)
			handles[r.Msg(i)] = h
		case pir.EvReceive:
			e = b.Receive(proc, handles[r.Msg(i)])
		}
		for _, vs := range r.Sets[r.SetOff[i]:r.SetOff[i+1]] {
			computation.Set(e, vs.Name, vs.Val)
		}
	}
	return b.MustBuild()
}
