package core

import (
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/explore"
	"repro/internal/lattice"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// postOnly is post-linear but deliberately not Linear, not conjunctive and
// not stable, to force the dispatcher onto the post-linear routes.
type postOnly struct {
	inner predicate.ChannelsEmpty
}

func (p postOnly) Eval(c *computation.Computation, cut computation.Cut) bool {
	return p.inner.Eval(c, cut)
}

func (p postOnly) Retreat(c *computation.Computation, cut computation.Cut) (int, bool) {
	return p.inner.Retreat(c, cut)
}

func (p postOnly) String() string { return "postOnly(channelsEmpty)" }

// oiOnly is an arbitrary predicate wrapped as observer-independent (it
// holds at the initial cut, which suffices for the class).
func oiOnly() predicate.Predicate {
	return predicate.ObserverIndependent{P: predicate.Fn{
		Name: "evenCut",
		F: func(c *computation.Computation, cut computation.Cut) bool {
			return cut.Size()%2 == 0
		},
	}}
}

func TestDispatcherPostLinearRoutes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 9), seed)
		l := latticeOf(t, comp)
		p := postOnly{}
		atom := ctl.Atom{P: p}

		res, err := Detect(comp, ctl.EF{F: atom})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Algorithm, "post-linear") {
			t.Fatalf("EF routed to %q", res.Algorithm)
		}
		if want := explore.Holds(l, ctl.EF{F: atom}); res.Holds != want {
			t.Errorf("seed %d: EF post-linear = %v, lattice %v", seed, res.Holds, want)
		}

		res, _ = Detect(comp, ctl.EG{F: atom})
		if !strings.Contains(res.Algorithm, "post-linear") {
			t.Fatalf("EG routed to %q", res.Algorithm)
		}
		if want := explore.Holds(l, ctl.EG{F: atom}); res.Holds != want {
			t.Errorf("seed %d: EG post-linear = %v, lattice %v", seed, res.Holds, want)
		}

		res, _ = Detect(comp, ctl.AG{F: atom})
		if !strings.Contains(res.Algorithm, "post-linear") {
			t.Fatalf("AG routed to %q", res.Algorithm)
		}
		if want := explore.Holds(l, ctl.AG{F: atom}); res.Holds != want {
			t.Errorf("seed %d: AG post-linear = %v, lattice %v", seed, res.Holds, want)
		}
	}
}

func TestDispatcherObserverIndependentRoutes(t *testing.T) {
	comp := sim.Fig2()
	l := latticeOf(t, comp)
	atom := ctl.Atom{P: oiOnly()}
	if !explore.CheckObserverIndependent(l, atom) {
		t.Skip("fixture predicate not observer-independent on this computation")
	}
	res, err := Detect(comp, ctl.EF{F: atom})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Algorithm, "observer-independent") {
		t.Fatalf("EF routed to %q", res.Algorithm)
	}
	if want := explore.Holds(l, ctl.EF{F: atom}); res.Holds != want {
		t.Errorf("EF OI = %v, lattice %v", res.Holds, want)
	}
	res, _ = Detect(comp, ctl.AF{F: atom})
	if !strings.Contains(res.Algorithm, "observer-independent") {
		t.Fatalf("AF routed to %q", res.Algorithm)
	}
	// Under EG/AG, observer-independent predicates hit the exponential
	// solver (Theorems 5/6).
	res, _ = Detect(comp, ctl.EG{F: atom})
	if !strings.Contains(res.Algorithm, "NP-complete") {
		t.Fatalf("EG routed to %q", res.Algorithm)
	}
	if want := explore.Holds(l, ctl.EG{F: atom}); res.Holds != want {
		t.Errorf("EG OI = %v, lattice %v", res.Holds, want)
	}
	res, _ = Detect(comp, ctl.AG{F: atom})
	if !strings.Contains(res.Algorithm, "co-NP-complete") {
		t.Fatalf("AG routed to %q", res.Algorithm)
	}
}

func TestCompileShapes(t *testing.T) {
	a := predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.GE, K: 1}
	b := predicate.VarCmp{Proc: 1, Var: "y", Op: predicate.GE, K: 1}
	cases := []struct {
		f    ctl.Formula
		want string // type description via String or type check
	}{
		{ctl.Not{F: ctl.Atom{P: predicate.Conj(a, b)}}, "disj"},
		{ctl.Not{F: ctl.Atom{P: predicate.Disj(a, b)}}, "conj"},
		{ctl.Not{F: ctl.Atom{P: a}}, "!("},
		{ctl.Not{F: ctl.Not{F: ctl.Atom{P: a}}}, "x@P1"},
		{ctl.Not{F: ctl.Atom{P: predicate.True}}, "false"},
		{ctl.And{L: ctl.Atom{P: predicate.Conj(a)}, R: ctl.Atom{P: predicate.Conj(b)}}, "conj("},
		{ctl.And{L: ctl.Atom{P: a}, R: ctl.Atom{P: b}}, "conj("},
		{ctl.And{L: ctl.Atom{P: predicate.ChannelsEmpty{}}, R: ctl.Atom{P: a}}, "and("},
		{ctl.Or{L: ctl.Atom{P: a}, R: ctl.Atom{P: b}}, "disj("},
		{ctl.Or{L: ctl.Atom{P: predicate.ChannelsEmpty{}}, R: ctl.Atom{P: a}}, "or("},
		{ctl.And{L: ctl.Atom{P: predicate.Fn{Name: "z", F: nil}}, R: ctl.Atom{P: a}}, "and("},
	}
	for _, c := range cases {
		p, err := Compile(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if !strings.Contains(p.String(), c.want) {
			t.Errorf("Compile(%s) = %s, want to contain %q", c.f, p, c.want)
		}
	}
	// Nested temporal inside a boolean context is rejected.
	if _, err := Compile(ctl.And{L: ctl.EF{F: ctl.Atom{P: a}}, R: ctl.Atom{P: b}}); err == nil {
		t.Error("temporal subformula accepted by Compile")
	}
	if _, err := Compile(ctl.Not{F: ctl.AG{F: ctl.Atom{P: a}}}); err == nil {
		t.Error("negated temporal subformula accepted by Compile")
	}
}

func TestDetectTopLevelBooleans(t *testing.T) {
	comp := sim.Fig2()
	tru := ctl.AG{F: ctl.Atom{P: predicate.True}}
	fls := ctl.EF{F: ctl.Atom{P: predicate.False}}
	cases := []struct {
		f    ctl.Formula
		want bool
	}{
		{ctl.And{L: tru, R: tru}, true},
		{ctl.And{L: tru, R: fls}, false},
		{ctl.Or{L: fls, R: tru}, true},
		{ctl.Or{L: fls, R: fls}, false},
		{ctl.Not{F: fls}, true},
	}
	for _, c := range cases {
		res, err := Detect(comp, c.f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds != c.want {
			t.Errorf("%s = %v, want %v", c.f, res.Holds, c.want)
		}
	}
	// Errors inside boolean combinations propagate.
	bad := ctl.EF{F: ctl.AG{F: ctl.Atom{P: predicate.True}}}
	for _, f := range []ctl.Formula{
		ctl.And{L: bad, R: tru}, ctl.And{L: tru, R: bad},
		ctl.Or{L: bad, R: tru}, ctl.Not{F: bad},
		ctl.EU{P: bad, Q: tru}, ctl.EU{P: ctl.Atom{P: predicate.True}, Q: bad},
		ctl.AU{P: bad, Q: tru}, ctl.AU{P: ctl.Atom{P: predicate.True}, Q: bad},
		ctl.EF{F: bad}, ctl.AF{F: bad}, ctl.EG{F: bad}, ctl.AG{F: bad},
	} {
		if _, err := Detect(comp, f); err == nil {
			t.Errorf("%s accepted despite nested temporal operator", f)
		}
	}
}

func TestMeetJoinIrreducibleHelpers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 9), seed)
		l := latticeOf(t, comp)
		mi := MeetIrreducibles(comp)
		ji := JoinIrreducibles(comp)
		wantMI := map[string]bool{}
		for _, idx := range l.MeetIrreducibles() {
			wantMI[l.Cut(idx).String()] = true
		}
		gotMI := map[string]bool{}
		for _, c := range mi {
			gotMI[c.String()] = true
		}
		if len(gotMI) != len(wantMI) {
			t.Fatalf("seed %d: formula MI count %d, lattice %d", seed, len(gotMI), len(wantMI))
		}
		for k := range wantMI {
			if !gotMI[k] {
				t.Fatalf("seed %d: MI sets differ", seed)
			}
		}
		wantJI := map[string]bool{}
		for _, idx := range l.JoinIrreducibles() {
			wantJI[l.Cut(idx).String()] = true
		}
		gotJI := map[string]bool{}
		for _, c := range ji {
			gotJI[c.String()] = true
		}
		if len(gotJI) != len(wantJI) {
			t.Fatalf("seed %d: formula JI count %d, lattice %d", seed, len(gotJI), len(wantJI))
		}
		for k := range wantJI {
			if !gotJI[k] {
				t.Fatalf("seed %d: JI sets differ", seed)
			}
		}
	}
}

func TestAUArbitraryEGBranch(t *testing.T) {
	// q never holds, so EG(¬q) is trivially witnessed and AU fails on the
	// EG branch.
	comp := sim.Fig2()
	p := predicate.Fn{Name: "p", F: func(*computation.Computation, computation.Cut) bool { return true }}
	q := predicate.Fn{Name: "q", F: func(*computation.Computation, computation.Cut) bool { return false }}
	if AUArbitrary(comp, p, q) {
		t.Error("A[p U q] with unsatisfiable q must fail")
	}
	// And with q holding only at E, p everywhere: AU holds.
	qE := predicate.Terminated{}
	if !AUArbitrary(comp, p, qE) {
		t.Error("A[true U terminated] must hold")
	}
	l := latticeOf(t, comp)
	want := explore.Holds(l, ctl.AU{P: ctl.Atom{P: p}, Q: ctl.Atom{P: qE}})
	if !want {
		t.Error("lattice disagrees with AU")
	}
}

func TestDetectUnknownFormula(t *testing.T) {
	if _, err := Detect(sim.Fig2(), nil); err == nil {
		t.Error("nil formula accepted")
	}
}

// Keep the lattice import used even if tests above change.
var _ = lattice.MaxSize
