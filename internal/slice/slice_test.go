package slice_test

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/slice"
)

func regularBattery(comp *computation.Computation) []predicate.Linear {
	out := []predicate.Linear{predicate.ChannelsEmpty{}}
	var locals []predicate.LocalPredicate
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			locals = append(locals, predicate.VarCmp{Proc: i, Var: name, Op: predicate.GE, K: 1})
		}
	}
	if len(locals) > 0 {
		out = append(out, predicate.Conjunctive{Locals: locals})
		out = append(out, predicate.Conj(locals[0]))
	}
	return out
}

func TestSliceFig4(t *testing.T) {
	comp := sim.Fig4()
	q := predicate.AndLinear{Ps: []predicate.Linear{
		predicate.ChannelsEmpty{},
		predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.GT, K: 1}),
	}}
	s := slice.NewIncremental(comp, q)
	if !s.Satisfiable() {
		t.Fatal("q is satisfiable on Fig 4")
	}
	ip, _ := s.Least()
	if !ip.Equal(computation.Cut{1, 2, 1}) {
		t.Errorf("I_q = %v, want <1 2 1>", ip)
	}
	// J of e1 is I_q itself (the least q-cut containing e1).
	j, ok := s.J(0, 1)
	if !ok || !j.Equal(computation.Cut{1, 2, 1}) {
		t.Errorf("J(e1) = %v, %v", j, ok)
	}
}

func TestSliceSatMatchesDirectEval(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 9), seed)
		l, err := lattice.Build(comp)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range regularBattery(comp) {
			// The battery must be regular for Sat to be exact.
			if !l.CheckRegular(p) {
				t.Fatalf("seed %d: %s not regular", seed, p)
			}
			s := slice.NewIncremental(comp, p)
			for _, cut := range l.Cuts() {
				want := p.Eval(comp, cut)
				if got := s.Sat(cut); got != want {
					t.Fatalf("seed %d pred %s cut %v: slice Sat = %v, direct = %v",
						seed, p, cut, got, want)
				}
			}
		}
	}
}

func TestSliceEGMatchesA1(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 10), seed)
		for _, p := range regularBattery(comp) {
			s := slice.NewIncremental(comp, p)
			_, want := core.EGLinear(comp, p)
			if got := s.EG(); got != want {
				t.Fatalf("seed %d pred %s: slice EG = %v, A1 = %v", seed, p, got, want)
			}
		}
	}
}

func TestSliceAGMatchesA2(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 10), seed)
		for _, p := range regularBattery(comp) {
			s := slice.NewIncremental(comp, p)
			_, want := core.AGLinear(comp, p)
			if got := s.AG(); got != want {
				t.Fatalf("seed %d pred %s: slice AG = %v, A2 = %v", seed, p, got, want)
			}
		}
	}
}

func TestSliceUnsatisfiable(t *testing.T) {
	comp := sim.Fig2()
	never := predicate.Conj(predicate.LocalFn{
		Proc: 0, Name: "never",
		Fn: func(*computation.Computation, int) bool { return false },
	})
	s := slice.NewIncremental(comp, never)
	if s.Satisfiable() {
		t.Fatal("never-true predicate reported satisfiable")
	}
	if s.Sat(comp.FinalCut()) || s.EG() || s.AG() {
		t.Error("unsatisfiable slice answered a query positively")
	}
	if _, ok := s.Least(); ok {
		t.Error("Least returned ok for unsatisfiable predicate")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestSliceJMissing(t *testing.T) {
	// channelsEmpty with a message that is never received: events at or
	// after the send have no satisfying J.
	b := computation.NewBuilder(2)
	b.Internal(0)
	b.Send(0) // never received
	b.Internal(1)
	comp := b.MustBuild()
	s := slice.NewIncremental(comp, predicate.ChannelsEmpty{})
	if !s.Satisfiable() {
		t.Fatal("∅ satisfies channelsEmpty")
	}
	if _, ok := s.J(0, 1); !ok {
		t.Error("J of the pre-send internal event should exist")
	}
	if j, ok := s.J(0, 2); ok {
		t.Errorf("J of the unreceived send should not exist, got %v", j)
	}
}
