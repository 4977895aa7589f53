package online

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/predicate"
)

// mustPanic asserts fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one mentioning %q)", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

// TestOutOfRangeProcessPanics pins the error-handling policy: a process
// index outside [0,n) is a programming error in the caller (the indices
// are the caller's own loop variables, not observed data) and panics,
// unlike observation-order violations, which return errors from Receive.
func TestOutOfRangeProcessPanics(t *testing.T) {
	const want = "out of range"
	m := NewMonitor(2)
	mustPanic(t, want, func() { m.SetInitial(2, "x", 1) })
	mustPanic(t, want, func() { m.SetInitial(-1, "x", 1) })
	mustPanic(t, want, func() { m.Internal(2, nil) })
	mustPanic(t, want, func() { m.Send(2, nil) })
	mustPanic(t, want, func() { _ = m.Receive(2, 1, nil) })
	mustPanic(t, want, func() { m.Value(2, "x") })
	mustPanic(t, want, func() { m.EventsOn(-1) })
	// The monitor must still be usable after a recovered panic.
	m.Internal(0, map[string]int{"x": 1})
	if got := m.Value(0, "x"); got != 1 {
		t.Fatalf("Value = %d after recovered panics, want 1", got)
	}
}

func TestEventsOn(t *testing.T) {
	m := NewMonitor(2)
	if m.EventsOn(0) != 0 || m.EventsOn(1) != 0 {
		t.Fatal("fresh monitor has events")
	}
	m.Internal(0, nil)
	id := m.Send(0, nil)
	if err := m.Receive(1, id, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.EventsOn(0); got != 2 {
		t.Errorf("EventsOn(0) = %d, want 2", got)
	}
	if got := m.EventsOn(1); got != 1 {
		t.Errorf("EventsOn(1) = %d, want 1", got)
	}
}

func TestParseConj(t *testing.T) {
	locals, err := ParseConj("conj(x@P1 == 1, y@P2 >= 2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != 2 {
		t.Fatalf("got %d locals, want 2", len(locals))
	}
	if want := Cmp(0, "x", "==", 1); locals[0] != want {
		t.Errorf("first local = %+v, want %+v", locals[0], want)
	}
	if want := Cmp(1, "y", ">=", 2); locals[1] != want {
		t.Errorf("second local = %+v, want %+v", locals[1], want)
	}

	// A bare comparison is a one-conjunct watch.
	locals, err = ParseConj("x@P1 == 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != 1 {
		t.Fatalf("got %d locals, want 1", len(locals))
	}

	// Verify the parsed conjunct actually compares once bound to a monitor.
	m := NewMonitor(1)
	m.SetInitial(0, "x", 1)
	w := m.WatchAG(locals...)
	if w.Violated() {
		t.Error("x == 1 does not hold on x=1")
	}
	m.Internal(0, map[string]int{"x": 2})
	if !w.Violated() {
		t.Error("x == 1 holds on x=2")
	}

	for _, src := range []string{
		"",                        // empty
		"conj(",                   // syntax error
		"EF(x@P1 == 1)",           // temporal
		"x@P1 == 1 || y@P2 == 2",  // not conjunctive
		"channelsEmpty",           // not a variable comparison
		"conj(x@P1 == 1) && true", // not an atom
	} {
		if _, err := ParseConj(src); err == nil {
			t.Errorf("ParseConj(%q) accepted", src)
		}
	}
}

// TestParseConjCache: parses are shared through the template cache, but
// no caller shares a slice — mutating one result leaves the next caller's
// parse as it was — and the cache stays bounded past its bound of
// distinct texts.
func TestParseConjCache(t *testing.T) {
	const src = "conj(x@P1 == 1, y@P2 >= 2)"
	first, err := ParseConj(src)
	if err != nil {
		t.Fatal(err)
	}
	first[0] = Cmp(3, "z", "<", 9)
	first[1] = Cmp(2, "w", "==", 0)
	second, err := ParseConj(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := []predicate.VarCmp{Cmp(0, "x", "==", 1), Cmp(1, "y", ">=", 2)}; !reflect.DeepEqual(second, want) {
		t.Fatalf("after a caller mutated its result, the parse reads %v, want %v", second, want)
	}

	for i := 0; i < 3*maxTemplates; i++ {
		if _, err := ParseConj(fmt.Sprintf("x@P1 == %d", i)); err != nil {
			t.Fatal(err)
		}
		templates.mu.Lock()
		n := len(templates.m)
		templates.mu.Unlock()
		if n > maxTemplates {
			t.Fatalf("after %d distinct texts the cache holds %d, bound %d", i+1, n, maxTemplates)
		}
	}
	if _, err := ParseConj(strings.Repeat(" ", maxTemplateLen) + src); err != nil {
		t.Fatal(err)
	}
	templates.mu.Lock()
	_, cached := templates.m[strings.Repeat(" ", maxTemplateLen)+src]
	templates.mu.Unlock()
	if cached {
		t.Fatalf("a text longer than %d bytes was cached", maxTemplateLen)
	}
}
