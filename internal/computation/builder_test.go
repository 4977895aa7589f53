package computation

import (
	"slices"
	"testing"
)

// TestSetOnOldHandle sets a variable through an event handle taken 5 000
// events (several slabs) earlier: the handle is still the computation's
// event and the assignment reaches Value and AppendAssignments.
func TestSetOnOldHandle(t *testing.T) {
	b := NewBuilder(2)
	old := b.Internal(0)
	for i := 0; i < 5000; i++ {
		Set(b.Internal(i%2), "x", i)
	}
	Set(old, "y", 7)
	Set(old, "y", 8) // the last Set of a name wins
	c := b.MustBuild()
	if c.Event(0, 1) != old {
		t.Fatal("Event(0, 1) is not the handle Internal returned")
	}
	for k := 1; k <= c.Len(0); k++ {
		if v, ok := c.Value(0, k, "y"); !ok || v != 8 {
			t.Fatalf("y@P1 state %d = %d, %v; want 8", k, v, ok)
		}
	}
	if v, _ := c.Value(0, 0, "y"); v != 0 {
		t.Errorf("y@P1 initial = %d, want 0", v)
	}
	want := []Assignment{{"y", 8}}
	if got := c.AppendAssignments(nil, old); !slices.Equal(got, want) {
		t.Errorf("assignments of the old event = %v, want %v", got, want)
	}
	if v, _ := c.Value(1, c.Len(1), "x"); v != 4999 {
		t.Errorf("x@P2 final = %d, want 4999", v)
	}
}

func TestSetAfterBuildPanics(t *testing.T) {
	b := NewBuilder(1)
	e := b.Internal(0)
	b.MustBuild()
	defer func() {
		if recover() == nil {
			t.Error("Set after Build did not panic")
		}
	}()
	Set(e, "x", 1)
}

// TestAppendAssignmentsNameOrder: assignments come back sorted by name,
// one per name, whatever order they were recorded in.
func TestAppendAssignmentsNameOrder(t *testing.T) {
	b := NewBuilder(1)
	e := b.Internal(0)
	Set(Set(Set(Set(e, "z", 1), "a", 2), "m", 3), "a", 4)
	c := b.MustBuild()
	want := []Assignment{{"a", 4}, {"m", 3}, {"z", 1}}
	if got := c.AppendAssignments(nil, e); !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if vars := c.Vars(0); !slices.Equal(vars, []string{"a", "m", "z"}) {
		t.Errorf("Vars = %v", vars)
	}
}

// TestIdleProcessesStayEmpty: a process without events or initial values
// costs nothing — no columns, no variables.
func TestIdleProcessesStayEmpty(t *testing.T) {
	b := NewBuilder(3)
	Set(b.Internal(1), "x", 1)
	c := b.MustBuild()
	for _, i := range []int{0, 2} {
		if c.Vars(i) != nil || c.vals[i] != nil || c.flow[i] != nil {
			t.Errorf("idle P%d has state: vars %v vals %v flow %v", i+1, c.Vars(i), c.vals[i], c.flow[i])
		}
	}
}

// TestBuildAllocations: building a 10k-event computation with three
// assignments per event allocates per slab and per growing slice, not per
// event.
func TestBuildAllocations(t *testing.T) {
	const events = 10000
	msgs := make([]Msg, 0, events)
	allocs := testing.AllocsPerRun(5, func() {
		msgs, next := msgs[:0], 0
		b := NewBuilder(4)
		for i := 0; i < events; i++ {
			p := i % 4
			var e *Event
			switch {
			case i%3 == 1:
				var m Msg
				e, m = b.Send(p)
				msgs = append(msgs, m)
			case i%3 == 2 && next < len(msgs) && b.sends[msgs[next].id-1].Proc != p:
				e = b.Receive(p, msgs[next])
				next++
			default:
				e = b.Internal(p)
			}
			Set(Set(Set(e, "a", i), "b", i%7), "c", i%3)
		}
		b.MustBuild()
	})
	per := allocs / events
	if per >= 0.05 {
		t.Errorf("%.0f allocations for %d events = %.3f per event, want < 0.05", allocs, events, per)
	}
	t.Logf("%.0f allocations, %.4f per event", allocs, per)
}
