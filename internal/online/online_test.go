package online

import (
	"fmt"
	"testing"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// replay feeds a computation into a monitor event by event along one
// linearization, with the computation's own message ids, calling step
// after every event.
func replay(t *testing.T, comp *computation.Computation, m *Monitor, step func(eventsSeen int)) {
	t.Helper()
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			if v, _ := comp.Value(i, 0, name); v != 0 {
				m.SetInitial(i, name, v)
			}
		}
	}
	seq := comp.SomeLinearization()
	seen := 0
	for s := 1; s < len(seq); s++ {
		prev, cur := seq[s-1], seq[s]
		for p := range cur {
			if cur[p] <= prev[p] {
				continue
			}
			e := comp.Event(p, cur[p])
			if err := m.Apply(p, rowKind[e.Kind], e.Msg, rowOf(comp, e)); err != nil {
				t.Fatalf("event %v: %v", e, err)
			}
			seen++
			if step != nil {
				step(seen)
			}
			break
		}
	}
}

func TestEFWatchMatchesOfflinePrefixes(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 15), seed)
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.GE, K: 2},
			predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.GE, K: 2},
			predicate.VarCmp{Proc: 2, Var: "x0", Op: predicate.GE, K: 1},
		)
		m := NewMonitor(comp.N())
		w := m.WatchEF(
			Cmp(0, "x0", ">=", 2),
			Cmp(1, "x0", ">=", 2),
			Cmp(2, "x0", ">=", 1),
		)
		fireCount := -1
		replay(t, comp, m, func(seen int) {
			if w.Fired() && fireCount < 0 {
				fireCount = seen
				// The produced cut must satisfy p on the snapshot.
				snap := m.Snapshot()
				if !snap.Consistent(w.Cut()) {
					t.Fatalf("seed %d: fired cut %v inconsistent", seed, w.Cut())
				}
				if !p.Eval(snap, w.Cut()) {
					t.Fatalf("seed %d: fired cut %v does not satisfy p", seed, w.Cut())
				}
			}
			// Online verdict must match offline EF on the prefix.
			want := core.EFLinear(m.Snapshot(), p)
			if w.Fired() != want {
				t.Fatalf("seed %d after %d events: online EF = %v, offline = %v",
					seed, seen, w.Fired(), want)
			}
		})
	}
}

func TestEFWatchFiresAtEarliestPrefix(t *testing.T) {
	// A deterministic scenario: the watch must fire exactly when the
	// second conjunct becomes true.
	m := NewMonitor(2)
	w := m.WatchEF(Cmp(0, "a", "==", 1), Cmp(1, "b", "==", 1))
	if w.Fired() {
		t.Fatal("fired before any conjunct holds")
	}
	m.Internal(0, map[string]int{"a": 1})
	if w.Fired() {
		t.Fatal("fired with only one conjunct true")
	}
	m.Internal(1, map[string]int{"b": 1})
	if !w.Fired() {
		t.Fatal("did not fire when both conjuncts hold")
	}
	if !w.Cut().Equal(computation.Cut{1, 1}) {
		t.Errorf("cut = %v, want <1 1>", w.Cut())
	}
}

func TestEFWatchRespectsCausality(t *testing.T) {
	// a=1 only while the message is unsent; b=1 only after receipt: the
	// two states can never coexist, so the watch must never fire.
	m := NewMonitor(2)
	w := m.WatchEF(Cmp(0, "a", "==", 1), Cmp(1, "b", "==", 1))
	m.Internal(0, map[string]int{"a": 1})
	id := m.Send(0, map[string]int{"a": 0})
	if err := m.Receive(1, id, map[string]int{"b": 1}); err != nil {
		t.Fatal(err)
	}
	if w.Fired() {
		t.Fatalf("fired at %v although the states are causally ordered", w.Cut())
	}
	// Offline agrees.
	p := predicate.Conj(
		predicate.VarCmp{Proc: 0, Var: "a", Op: predicate.EQ, K: 1},
		predicate.VarCmp{Proc: 1, Var: "b", Op: predicate.EQ, K: 1},
	)
	if core.EFLinear(m.Snapshot(), p) {
		t.Fatal("offline disagrees: EF should be false")
	}
}

func TestEFWatchInitialStates(t *testing.T) {
	m := NewMonitor(2)
	m.SetInitial(0, "a", 1)
	m.SetInitial(1, "b", 1)
	w := m.WatchEF(Cmp(0, "a", "==", 1), Cmp(1, "b", "==", 1))
	if !w.Fired() || !w.Cut().Equal(computation.Cut{0, 0}) {
		t.Fatalf("watch on initially-true conjuncts: fired=%v cut=%v", w.Fired(), w.Cut())
	}
	// Empty conjunction fires immediately at ∅.
	m2 := NewMonitor(1)
	if w2 := m2.WatchEF(); !w2.Fired() {
		t.Error("empty conjunction did not fire")
	}
}

func TestAGWatch(t *testing.T) {
	m := NewMonitor(2)
	w := m.WatchAG(Cmp(0, "x", "<=", 5), Cmp(1, "y", "<=", 5))
	m.Internal(0, map[string]int{"x": 3})
	m.Internal(1, map[string]int{"y": 5})
	if w.Violated() {
		t.Fatal("violated while invariant holds")
	}
	m.Internal(1, map[string]int{"y": 6})
	if !w.Violated() {
		t.Fatal("violation missed")
	}
	cut, local := w.Counterexample()
	if local != "y@P2 <= 5" {
		t.Errorf("failing conjunct = %q", local)
	}
	snap := m.Snapshot()
	if !snap.Consistent(cut) {
		t.Errorf("counterexample %v inconsistent", cut)
	}
	if v, _ := snap.Value(1, cut[1], "y"); v != 6 {
		t.Errorf("counterexample does not expose the bad state: y = %d", v)
	}
	// Offline A2 agrees on the snapshot.
	p := predicate.Conj(
		predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.LE, K: 5},
		predicate.VarCmp{Proc: 1, Var: "y", Op: predicate.LE, K: 5},
	)
	if _, ok := core.AGLinear(snap, p); ok {
		t.Error("offline AG disagrees")
	}
}

func TestAGWatchMatchesOfflinePrefixes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 12), seed)
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 2},
			predicate.VarCmp{Proc: 1, Var: "x1", Op: predicate.LE, K: 2},
		)
		m := NewMonitor(comp.N())
		w := m.WatchAG(Cmp(0, "x0", "<=", 2), Cmp(1, "x1", "<=", 2))
		replay(t, comp, m, func(seen int) {
			_, ok := core.AGLinear(m.Snapshot(), p)
			if w.Violated() != !ok {
				t.Fatalf("seed %d after %d events: online violated=%v, offline AG=%v",
					seed, seen, w.Violated(), ok)
			}
		})
	}
}

func TestStableWatch(t *testing.T) {
	m := NewMonitor(2)
	w := m.WatchStable("quiescent-done", func(m *Monitor) bool {
		return m.InFlight() == 0 && m.Value(1, "done") == 1
	})
	id := m.Send(0, nil)
	m.Internal(1, map[string]int{"done": 1})
	if w.Fired() {
		t.Fatal("fired with a message in flight")
	}
	if err := m.Receive(1, id, nil); err != nil {
		t.Fatal(err)
	}
	if !w.Fired() {
		t.Fatal("did not fire at quiescence")
	}
	if w.FiredAt() != 3 {
		t.Errorf("FiredAt = %d, want 3", w.FiredAt())
	}
}

// TestWatchQuiescent: the bound STABLE watch fires at the first frontier
// with no message in flight and every conjunct true — and a message is
// in flight from its send event on, so a send that makes the conjuncts
// true does not fire it.
func TestWatchQuiescent(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		m := NewMonitor(2)
		if bounded {
			m = NewBoundedMonitor(2)
		}
		m.SetInitial(1, "done", 1)
		w := m.WatchQuiescent("done", Cmp(0, "x", "==", 1), Cmp(1, "done", "==", 1))
		m.Internal(1, nil)
		if err := m.Apply(0, pir.EvSend, 9, []pir.VarSet{{Name: "x", Val: 1}}); err != nil {
			t.Fatal(err)
		}
		if w.Fired() {
			t.Fatalf("bounded %v: fired at event %d with message 9 in flight", bounded, w.FiredAt())
		}
		if err := m.Apply(1, pir.EvReceive, 9, nil); err != nil {
			t.Fatal(err)
		}
		if !w.Fired() || w.FiredAt() != 3 || m.Latched() != 1 {
			t.Fatalf("bounded %v: fired %v at %d (latched %d), want event 3", bounded, w.Fired(), w.FiredAt(), m.Latched())
		}
	}
}

func TestMonitorErrors(t *testing.T) {
	m := NewMonitor(2)
	if err := m.Receive(0, 99, nil); err == nil {
		t.Error("unknown message accepted")
	}
	id := m.Send(0, nil)
	if err := m.Receive(0, id, nil); err == nil {
		t.Error("self-receive accepted")
	}
	if err := m.Receive(1, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Receive(1, id, nil); err == nil {
		t.Error("duplicate receive accepted")
	}

	// Send's ids and ids a caller chose share one table: Send picks one
	// above every id sent so far, and a caller reusing one of Send's ids
	// is told so.
	if err := m.Apply(1, pir.EvSend, 40, nil); err != nil {
		t.Fatal(err)
	}
	if id = m.Send(0, nil); id != 41 {
		t.Errorf("Send after caller id 40 chose %d, want 41", id)
	}
	if err := m.Apply(1, pir.EvSend, id, nil); err == nil || err.Error() != "message 41 sent twice" {
		t.Errorf("caller reusing Send's id: %v", err)
	}
	if err := m.Apply(1, pir.EvSend, -3, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Receive(1, 41, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Receive(0, 40, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(1, pir.EvReceive, -3, nil); err == nil || err.Error() != "online: message -3 received by its sender" {
		t.Errorf("self-receive of caller id -3: %v", err)
	}
	if got := m.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1 (message -3)", got)
	}
	if got := m.Snapshot().TotalEvents(); got != m.Events() {
		t.Errorf("snapshot holds %d events, want %d", got, m.Events())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("late WatchEF did not panic")
			}
		}()
		m.WatchEF(Cmp(0, "x", "==", 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("late SetInitial did not panic")
			}
		}()
		m.SetInitial(0, "x", 1)
	}()
}

func TestMonitorDetectBridge(t *testing.T) {
	m := NewMonitor(2)
	id := m.Send(0, map[string]int{"x": 1})
	if err := m.Receive(1, id, map[string]int{"y": 1}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Detect(ctl.MustParse("EF(x@P1 == 1 && y@P2 == 1)"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("bridge detection failed")
	}
}

func TestSnapshotMatchesDirectBuild(t *testing.T) {
	comp := sim.Fig4()
	m := NewMonitor(comp.N())
	replay(t, comp, m, nil)
	sameComputation(t, comp, m.Snapshot())

	// Initial values are part of the record: a name set twice keeps the
	// last value, and a process's inits may follow another's events.
	m = NewMonitor(2)
	b := computation.NewBuilder(2)
	m.SetInitial(1, "x", 3)
	m.SetInitial(1, "x", 5)
	b.SetInitial(1, "x", 5)
	m.Internal(0, map[string]int{"x": 1})
	computation.Set(b.Internal(0), "x", 1)
	id := m.Send(0, nil)
	_, h := b.Send(0)
	m.SetInitial(1, "y", -2)
	b.SetInitial(1, "y", -2)
	if err := m.Receive(1, id, map[string]int{"y": 4}); err != nil {
		t.Fatal(err)
	}
	computation.Set(b.Receive(1, h), "y", 4)
	sameComputation(t, b.MustBuild(), m.Snapshot())
}

// sameComputation requires got to be want event for event: dimensions,
// kinds, vector clocks (hence message pairing), and every variable's
// value in every local state.
func sameComputation(t *testing.T, want, got *computation.Computation) {
	t.Helper()
	if got.TotalEvents() != want.TotalEvents() || got.N() != want.N() {
		t.Fatalf("dimensions differ: %d events on %d processes, want %d on %d",
			got.TotalEvents(), got.N(), want.TotalEvents(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		if got.Len(i) != want.Len(i) {
			t.Fatalf("P%d has %d events, want %d", i+1, got.Len(i), want.Len(i))
		}
		names := append(append([]string(nil), want.Vars(i)...), got.Vars(i)...)
		for k := 0; k <= want.Len(i); k++ {
			for _, name := range names {
				a, _ := want.Value(i, k, name)
				b, _ := got.Value(i, k, name)
				if a != b {
					t.Errorf("value %s@P%d state %d: %d, want %d", name, i+1, k, b, a)
				}
			}
		}
		for k := 1; k <= want.Len(i); k++ {
			w, g := want.Event(i, k), got.Event(i, k)
			if w.Kind != g.Kind || !w.Clock.Equal(g.Clock) {
				t.Errorf("event (%d,%d): kind %v clock %v, want kind %v clock %v", i, k, g.Kind, g.Clock, w.Kind, w.Clock)
			}
		}
	}
}

// TestSnapshotRoundTrip feeds a monitor and a computation.Builder the same
// stream — initial values, events with several assignments, events with
// none, crossing messages — and requires the snapshot to equal the built
// computation: the columnar record must lose nothing the map-per-event
// record kept.
func TestSnapshotRoundTrip(t *testing.T) {
	m := NewMonitor(3)
	b := computation.NewBuilder(3)
	m.SetInitial(0, "x", 4)
	b.SetInitial(0, "x", 4)
	m.SetInitial(2, "y", -1)
	b.SetInitial(2, "y", -1)
	set := func(e *computation.Event, sets map[string]int) {
		for name, v := range sets {
			computation.Set(e, name, v)
		}
	}
	internal := func(p int, sets map[string]int) {
		m.Internal(p, sets)
		set(b.Internal(p), sets)
	}
	send := func(p int, sets map[string]int) (int, computation.Msg) {
		id := m.Send(p, sets)
		e, h := b.Send(p)
		set(e, sets)
		return id, h
	}
	receive := func(p, id int, h computation.Msg, sets map[string]int) {
		if err := m.Receive(p, id, sets); err != nil {
			t.Fatal(err)
		}
		set(b.Receive(p, h), sets)
	}

	internal(0, map[string]int{"x": 1, "y": 2, "z": -3})
	internal(1, nil)
	id1, h1 := send(0, map[string]int{})
	id2, h2 := send(2, map[string]int{"y": 7, "x": 0})
	internal(1, map[string]int{"x": 9})
	receive(1, id2, h2, nil) // delivered out of send order
	receive(2, id1, h1, map[string]int{"y": 8, "w": 1})
	internal(0, nil)

	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameComputation(t, want, m.Snapshot())
}

// TestUnboundedInternalAllocs pins the per-event allocation count of the
// recording monitor: the record is columnar and amortized, so an event no
// watch asks about allocates nothing, and one that queues an EF candidate
// allocates exactly the start clock the candidate keeps. A per-event map
// or clock copy would show up here as +1.
func TestUnboundedInternalAllocs(t *testing.T) {
	m := NewMonitor(3)
	w := m.WatchEF(Cmp(0, "x", "==", 1), Cmp(1, "x", "==", 1))
	sets := map[string]int{"x": 1, "y": 2}
	for i := 0; i < 1024; i++ { // grow the record and queue past their early doublings
		m.Internal(0, sets)
		m.Internal(2, sets)
	}
	if got := testing.AllocsPerRun(1000, func() { m.Internal(2, sets) }); got != 0 {
		t.Errorf("event on an unwatched process: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { m.Internal(0, sets) }); got != 1 {
		t.Errorf("event queuing an EF candidate: %v allocs, want 1 (its start clock)", got)
	}
	if w.Fired() {
		t.Fatal("watch fired; the guard measured the wrong path")
	}
}

func ExampleMonitor() {
	m := NewMonitor(2)
	w := m.WatchEF(Cmp(0, "ready", "==", 1), Cmp(1, "ready", "==", 1))
	m.Internal(0, map[string]int{"ready": 1})
	fmt.Println(w.Fired())
	m.Internal(1, map[string]int{"ready": 1})
	fmt.Println(w.Fired(), w.Cut())
	// Output:
	// false
	// true <1 1>
}

// rowOf returns e's assignments as the row Apply takes.
// rowKind maps an event's kind to its row kind.
var rowKind = [...]byte{computation.Internal: pir.EvInternal, computation.Send: pir.EvSend, computation.Receive: pir.EvReceive}

func rowOf(comp *computation.Computation, e *computation.Event) []pir.VarSet {
	var row []pir.VarSet
	for _, a := range comp.AppendAssignments(nil, e) {
		row = append(row, pir.VarSet{Name: a.Name, Val: a.Value})
	}
	return row
}

// setsOf returns e's assignments as the map the monitor takes.
func setsOf(comp *computation.Computation, e *computation.Event) map[string]int {
	sets := make(map[string]int)
	for _, a := range comp.AppendAssignments(nil, e) {
		sets[a.Name] = a.Value
	}
	return sets
}
