package core

import (
	"fmt"
	"testing"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/explore"
	"repro/internal/lattice"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Cross-validation: every structural algorithm must agree with the
// explicit-lattice CTL checker on a large battery of seeded random
// computations. This is the ground-truth test for the whole module.

// testComps returns a varied set of small computations whose lattices are
// cheap to enumerate.
func testComps(tb testing.TB) []*computation.Computation {
	tb.Helper()
	comps := []*computation.Computation{sim.Fig2(), sim.Fig4()}
	configs := []sim.RandomConfig{
		{Procs: 1, Events: 6, SendProb: 0, RecvProb: 0, Vars: 1, ValRange: 3},
		{Procs: 2, Events: 8, SendProb: 0.4, RecvProb: 0.8, Vars: 2, ValRange: 3},
		{Procs: 3, Events: 9, SendProb: 0.3, RecvProb: 0.7, Vars: 2, ValRange: 3},
		{Procs: 3, Events: 10, SendProb: 0.6, RecvProb: 0.9, Vars: 1, ValRange: 2},
		{Procs: 4, Events: 10, SendProb: 0.3, RecvProb: 0.6, Vars: 2, ValRange: 3},
		{Procs: 4, Events: 8, SendProb: 0, RecvProb: 0, Vars: 1, ValRange: 2}, // fully concurrent
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 25; seed++ {
			comps = append(comps, sim.Random(cfg, seed))
		}
	}
	return comps
}

// conjBattery builds conjunctive predicates exercising each computation's
// variables.
func conjBattery(comp *computation.Computation) []predicate.Conjunctive {
	var out []predicate.Conjunctive
	var locals []predicate.LocalPredicate
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			locals = append(locals, varCmp(i, name, predicate.GE, 1))
		}
	}
	if len(locals) == 0 {
		return []predicate.Conjunctive{predicate.Conj()}
	}
	out = append(out, predicate.Conjunctive{Locals: locals})
	out = append(out, predicate.Conj(locals[0]))
	if len(locals) >= 2 {
		out = append(out, predicate.Conj(locals[0], locals[len(locals)-1]))
	}
	// A sparser variant with different thresholds.
	var sparse []predicate.LocalPredicate
	for idx, l := range locals {
		if idx%2 == 0 {
			v := l.(predicate.VarCmp)
			v.Op, v.K = predicate.LE, 1
			sparse = append(sparse, v)
		}
	}
	if len(sparse) > 0 {
		out = append(out, predicate.Conjunctive{Locals: sparse})
	}
	return out
}

func latticeOf(tb testing.TB, comp *computation.Computation) *lattice.Lattice {
	tb.Helper()
	l, err := lattice.Build(comp)
	if err != nil {
		tb.Fatalf("lattice build: %v", err)
	}
	return l
}

func TestCrossValidateLinearOperators(t *testing.T) {
	for ci, comp := range testComps(t) {
		l := latticeOf(t, comp)
		var linears []predicate.Linear
		for _, c := range conjBattery(comp) {
			linears = append(linears, c)
		}
		linears = append(linears, predicate.ChannelsEmpty{})
		if comp.N() >= 2 {
			linears = append(linears, predicate.ChannelEmpty{From: 0, To: 1})
			linears = append(linears, predicate.ChannelEmpty{From: 1, To: 0})
		}
		if len(conjBattery(comp)) > 0 {
			linears = append(linears, predicate.AndLinear{Ps: []predicate.Linear{
				conjBattery(comp)[0], predicate.ChannelsEmpty{},
			}})
		}
		for pi, p := range linears {
			// The battery predicates must actually be linear.
			if ok, a, b := l.CheckLinear(p); !ok {
				t.Fatalf("comp %d pred %d (%s) not linear: meet(%v, %v)", ci, pi, p, a, b)
			}
			atom := ctl.Atom{P: p}

			// EF via advancement.
			gotEF := EFLinear(comp, p)
			wantEF := explore.Holds(l, ctl.EF{F: atom})
			if gotEF != wantEF {
				t.Errorf("comp %d pred %s: EF = %v, lattice %v", ci, p, gotEF, wantEF)
			}
			// The least cut agrees with the lattice's.
			if cut, ok := LeastCut(comp, p); ok {
				want, wantOK := l.LeastSat(p)
				if !wantOK || !cut.Equal(want) {
					t.Errorf("comp %d pred %s: LeastCut = %v, lattice least = %v (%v)", ci, p, cut, want, wantOK)
				}
			}

			// A1.
			path, gotEG := EGLinear(comp, p)
			wantEG := explore.Holds(l, ctl.EG{F: atom})
			if gotEG != wantEG {
				t.Errorf("comp %d pred %s: A1 EG = %v, lattice %v", ci, p, gotEG, wantEG)
			}
			if gotEG {
				verifyEGPath(t, comp, p, path)
			}
			// A2.
			cex, gotAG := AGLinear(comp, p)
			wantAG := explore.Holds(l, ctl.AG{F: atom})
			if gotAG != wantAG {
				t.Errorf("comp %d pred %s: A2 AG = %v, lattice %v", ci, p, gotAG, wantAG)
			}
			if !gotAG {
				if !comp.Consistent(cex) || p.Eval(comp, cex) {
					t.Errorf("comp %d pred %s: bad AG counterexample %v", ci, p, cex)
				}
			}
		}
	}
}

func verifyEGPath(t *testing.T, comp *computation.Computation, p predicate.Predicate, path []computation.Cut) {
	t.Helper()
	if len(path) != comp.TotalEvents()+1 {
		t.Errorf("EG path length %d, want %d", len(path), comp.TotalEvents()+1)
		return
	}
	for i, cut := range path {
		if !comp.Consistent(cut) || !p.Eval(comp, cut) {
			t.Errorf("EG path cut %v invalid at step %d", cut, i)
			return
		}
		if i > 0 && (path[i-1].Size()+1 != cut.Size() || !path[i-1].LessEq(cut)) {
			t.Errorf("EG path step %v → %v not ▷", path[i-1], cut)
			return
		}
	}
}

func TestCrossValidatePostLinearOperators(t *testing.T) {
	for ci, comp := range testComps(t) {
		l := latticeOf(t, comp)
		posts := []predicate.PostLinear{predicate.ChannelsEmpty{}}
		if comp.N() >= 2 {
			posts = append(posts, predicate.ChannelEmpty{From: 0, To: 1})
		}
		for _, c := range conjBattery(comp) {
			posts = append(posts, c)
		}
		for _, p := range posts {
			if ok, _, _ := l.CheckPostLinear(p); !ok {
				// Conjunctive predicates are always post-linear; channel
				// emptiness is regular. This must never fire.
				t.Fatalf("comp %d pred %s not post-linear", ci, p)
			}
			atom := ctl.Atom{P: p}
			gotEF := EFPostLinear(comp, p)
			if want := explore.Holds(l, ctl.EF{F: atom}); gotEF != want {
				t.Errorf("comp %d pred %s: EF post-linear = %v, lattice %v", ci, p, gotEF, want)
			}
			if cut, ok := GreatestCut(comp, p); ok {
				want, wantOK := l.GreatestSat(p)
				if !wantOK || !cut.Equal(want) {
					t.Errorf("comp %d pred %s: GreatestCut = %v, lattice %v (%v)", ci, p, cut, want, wantOK)
				}
			}
			path, gotEG := EGPostLinear(comp, p)
			if want := explore.Holds(l, ctl.EG{F: atom}); gotEG != want {
				t.Errorf("comp %d pred %s: EG post-linear = %v, lattice %v", ci, p, gotEG, want)
			}
			if gotEG {
				verifyEGPath(t, comp, p, path)
			}
			cex, gotAG := AGPostLinear(comp, p)
			if want := explore.Holds(l, ctl.AG{F: atom}); gotAG != want {
				t.Errorf("comp %d pred %s: AG post-linear = %v, lattice %v", ci, p, gotAG, want)
			}
			if !gotAG && (cex == nil || p.Eval(comp, cex)) {
				t.Errorf("comp %d pred %s: bad post-linear AG counterexample %v", ci, p, cex)
			}
		}
	}
}

func TestCrossValidateConjunctiveDisjunctive(t *testing.T) {
	for ci, comp := range testComps(t) {
		l := latticeOf(t, comp)
		for _, c := range conjBattery(comp) {
			d := c.Negate()
			atomC, atomD := ctl.Atom{P: c}, ctl.Atom{P: d}

			// AF conjunctive (Garg–Waldecker boxes).
			_, gotAFc := AFConjunctive(comp, c)
			if want := explore.Holds(l, ctl.AF{F: atomC}); gotAFc != want {
				t.Errorf("comp %d pred %s: AF conj = %v, lattice %v", ci, c, gotAFc, want)
			}
			// EG disjunctive.
			gotEGd := EGDisjunctive(comp, d)
			if want := explore.Holds(l, ctl.EG{F: atomD}); gotEGd != want {
				t.Errorf("comp %d pred %s: EG disj = %v, lattice %v", ci, d, gotEGd, want)
			}
			// AF disjunctive.
			gotAFd := AFDisjunctive(comp, d)
			if want := explore.Holds(l, ctl.AF{F: atomD}); gotAFd != want {
				t.Errorf("comp %d pred %s: AF disj = %v, lattice %v", ci, d, gotAFd, want)
			}
			// AG disjunctive.
			gotAGd := AGDisjunctive(comp, d)
			if want := explore.Holds(l, ctl.AG{F: atomD}); gotAGd != want {
				t.Errorf("comp %d pred %s: AG disj = %v, lattice %v", ci, d, gotAGd, want)
			}
			// EF disjunctive.
			gotEFd := EFDisjunctive(comp, d)
			if want := explore.Holds(l, ctl.EF{F: atomD}); gotEFd != want {
				t.Errorf("comp %d pred %s: EF disj = %v, lattice %v", ci, d, gotEFd, want)
			}
			// Disjunctive predicates are observer-independent: the
			// single-observation detector must agree with EF.
			if got := DetectObserverIndependent(comp, d); got != explore.Holds(l, ctl.EF{F: atomD}) {
				t.Errorf("comp %d pred %s: OI walk = %v disagrees with EF", ci, d, got)
			}
			if !explore.CheckObserverIndependent(l, atomD) {
				t.Errorf("comp %d pred %s: disjunctive predicate not observer-independent?!", ci, d)
			}
		}
	}
}

// TestAFBoxWitnessValidity verifies the structure of the Garg–Waldecker
// box whenever AF fires: each interval's states satisfy the process's
// conjuncts, and every ordered pair of intervals must-overlaps (begin_j
// happened-before end_i, with ±∞ conventions).
func TestAFBoxWitnessValidity(t *testing.T) {
	for ci, comp := range testComps(t) {
		for _, c := range conjBattery(comp) {
			box, ok := AFConjunctive(comp, c)
			if !ok || len(box) == 0 {
				continue
			}
			byProc := make(map[int][]predicate.LocalPredicate)
			for _, l := range c.Locals {
				byProc[l.Process()] = append(byProc[l.Process()], l)
			}
			for _, iv := range box {
				for k := iv.Lo; k <= iv.Hi; k++ {
					for _, l := range byProc[iv.Proc] {
						if !l.HoldsAt(comp, k) {
							t.Fatalf("comp %d pred %s: box interval %+v has false state %d", ci, c, iv, k)
						}
					}
				}
			}
			for _, a := range box {
				for _, b := range box {
					if a.Proc == b.Proc {
						continue
					}
					// begin_b → end_a (nil begin/end are ±∞, vacuous).
					if b.Lo == 0 || a.Hi >= comp.Len(a.Proc) {
						continue
					}
					beginB := comp.Event(b.Proc, b.Lo)
					endA := comp.Event(a.Proc, a.Hi+1)
					if !comp.HappenedBefore(beginB, endA) {
						t.Fatalf("comp %d pred %s: box %+v / %+v does not must-overlap", ci, c, a, b)
					}
				}
			}
		}
	}
}

func TestCrossValidateUntil(t *testing.T) {
	for ci, comp := range testComps(t) {
		l := latticeOf(t, comp)
		conjs := conjBattery(comp)
		for pi, p := range conjs {
			for qi, qc := range conjs {
				q := predicate.AndLinear{Ps: []predicate.Linear{qc, predicate.ChannelsEmpty{}}}
				f := ctl.EU{P: ctl.Atom{P: p}, Q: ctl.Atom{P: q}}
				path, got := EUConjLinear(comp, p, q)
				want := explore.Holds(l, f)
				if got != want {
					t.Errorf("comp %d p%d q%d: A3 EU = %v, lattice %v (p=%s q=%s)", ci, pi, qi, got, want, p, q)
				}
				if got {
					verifyEUPath(t, comp, p, q, path)
				}
				// AU over the disjunctive negations.
				dp, dq := p.Negate(), qc.Negate()
				fa := ctl.AU{P: ctl.Atom{P: dp}, Q: ctl.Atom{P: dq}}
				gotAU := AUDisjunctive(comp, dp, dq)
				wantAU := explore.Holds(l, fa)
				if gotAU != wantAU {
					t.Errorf("comp %d p%d q%d: AU = %v, lattice %v (p=%s q=%s)", ci, pi, qi, gotAU, wantAU, dp, dq)
				}
			}
		}
	}
}

func verifyEUPath(t *testing.T, comp *computation.Computation, p, q predicate.Predicate, path []computation.Cut) {
	t.Helper()
	if len(path) == 0 || !path[0].Equal(comp.InitialCut()) {
		t.Errorf("EU path %v does not start at ∅", path)
		return
	}
	for i, cut := range path {
		if !comp.Consistent(cut) {
			t.Errorf("EU path cut %v inconsistent", cut)
		}
		if i < len(path)-1 && !p.Eval(comp, cut) {
			t.Errorf("EU path: p fails before the end at %v", cut)
		}
		if i > 0 && (path[i-1].Size()+1 != cut.Size() || !path[i-1].LessEq(cut)) {
			t.Errorf("EU path step %v → %v not ▷", path[i-1], cut)
		}
	}
	if !q.Eval(comp, path[len(path)-1]) {
		t.Errorf("EU path: q fails at the end %v", path[len(path)-1])
	}
}

func TestCrossValidateArbitrary(t *testing.T) {
	for ci, comp := range testComps(t) {
		if ci%3 != 0 { // arbitrary solvers are slow; sample
			continue
		}
		l := latticeOf(t, comp)
		var p predicate.Predicate = predicate.ChannelsEmpty{}
		if cb := conjBattery(comp); len(cb) > 0 {
			p = predicate.Or{Ps: []predicate.Predicate{cb[0], predicate.ChannelsEmpty{}}}
		}
		atom := ctl.Atom{P: p}
		checks := []struct {
			name string
			got  bool
			f    ctl.Formula
		}{
			{"EF", EFArbitrary(comp, p), ctl.EF{F: atom}},
			{"EG", EGArbitrary(comp, p), ctl.EG{F: atom}},
			{"AF", AFArbitrary(comp, p), ctl.AF{F: atom}},
			{"AG", AGArbitrary(comp, p), ctl.AG{F: atom}},
			{"EU", EUArbitrary(comp, p, predicate.Terminated{}), ctl.EU{P: atom, Q: ctl.Atom{P: predicate.Terminated{}}}},
			{"AU", AUArbitrary(comp, p, predicate.Terminated{}), ctl.AU{P: atom, Q: ctl.Atom{P: predicate.Terminated{}}}},
		}
		for _, c := range checks {
			if want := explore.Holds(l, c.f); c.got != want {
				t.Errorf("comp %d: %sArbitrary = %v, lattice %v", ci, c.name, c.got, want)
			}
		}
	}
}

// TestCrossValidateDetect drives the dispatcher over parsed formulas and
// compares with the lattice checker, covering the routing logic itself.
func TestCrossValidateDetect(t *testing.T) {
	formulas := []string{
		"EF(conj(x0@P1 >= 1))",
		"AF(conj(x0@P1 >= 1))",
		"EG(disj(x0@P1 < 1))",
		"AG(disj(x0@P1 < 1))",
		"EF(channelsEmpty)",
		"EG(channelsEmpty)",
		"AG(channelsEmpty)",
		"E[conj(x0@P1 <= 2) U channelsEmpty]",
		"A[disj(x0@P1 >= 1) U disj(x0@P1 < 1)]",
		"EF(channelsEmpty && x0@P1 >= 1)",
		"AG(!(x0@P1 >= 2))",
		"EF(terminated)",
		"AG(true)",
		"EG(true) && !(EF(x0@P1 >= 3))",
	}
	for ci, comp := range testComps(t) {
		if comp.N() < 1 {
			continue
		}
		hasX0 := false
		for _, v := range comp.Vars(0) {
			if v == "x0" {
				hasX0 = true
			}
		}
		if !hasX0 {
			continue
		}
		l := latticeOf(t, comp)
		for _, src := range formulas {
			f, err := ctl.Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			res, err := Detect(comp, f)
			if err != nil {
				t.Fatalf("comp %d %q: %v", ci, src, err)
			}
			want := evalTop(l, f)
			if res.Holds != want {
				t.Errorf("comp %d %q: Detect = %v (%s), lattice %v", ci, src, res.Holds, res.Algorithm, want)
			}
		}
	}
}

// evalTop evaluates boolean combinations at the top level the way Detect
// does, delegating temporal subformulas to the lattice checker.
func evalTop(l *lattice.Lattice, f ctl.Formula) bool {
	switch g := f.(type) {
	case ctl.Not:
		return !evalTop(l, g.F)
	case ctl.And:
		return evalTop(l, g.L) && evalTop(l, g.R)
	case ctl.Or:
		return evalTop(l, g.L) || evalTop(l, g.R)
	default:
		return explore.Holds(l, f)
	}
}

// TestDetectRejectsNested ensures nested temporal operators are rejected,
// matching the paper's fragment.
func TestDetectRejectsNested(t *testing.T) {
	comp := sim.Fig2()
	f := ctl.EF{F: ctl.AG{F: ctl.Atom{P: predicate.True}}}
	if _, err := Detect(comp, f); err == nil {
		t.Error("nested temporal formula accepted")
	}
}

// TestDetectAlgorithmRouting pins the dispatcher's algorithm choices to
// the cells of Table 1.
func TestDetectAlgorithmRouting(t *testing.T) {
	comp := sim.Fig4()
	conj := ctl.Atom{P: fig4P()}
	disj := ctl.Atom{P: fig4P().Negate()}
	stable := ctl.Atom{P: predicate.Stable{P: predicate.Terminated{}}}
	cases := []struct {
		f    ctl.Formula
		want string
	}{
		{ctl.EF{F: conj}, "EF linear: Chase–Garg advancement"},
		{ctl.EG{F: conj}, "EG linear: Algorithm A1"},
		{ctl.AG{F: conj}, "AG linear: Algorithm A2 (meet-irreducibles)"},
		{ctl.AF{F: conj}, "AF conjunctive: Garg–Waldecker interval boxes"},
		{ctl.EF{F: disj}, "EF disjunctive: local state scan"},
		{ctl.EG{F: disj}, "EG disjunctive: ¬AF(¬p) via interval boxes"},
		{ctl.AF{F: disj}, "AF disjunctive: ¬EG(¬p) via A1"},
		{ctl.AG{F: disj}, "AG disjunctive: ¬EF(¬p) via advancement"},
		{ctl.EF{F: stable}, "EF stable: evaluate at the final cut"},
		{ctl.EG{F: stable}, "EG stable: evaluate at the initial cut"},
		{ctl.EU{P: conj, Q: ctl.Atom{P: fig4Q()}}, "EU conjunctive/linear: Algorithm A3"},
		{ctl.AU{P: disj, Q: disj}, "AU disjunctive: ¬(EG(¬q) ∨ E[¬q U ¬p∧¬q])"},
	}
	for _, c := range cases {
		res, err := Detect(comp, c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if res.Algorithm != c.want {
			t.Errorf("%s routed to %q, want %q", c.f, res.Algorithm, c.want)
		}
	}
}

// TestExhaustiveTinyComputations cross-validates on every computation of a
// systematic family: all 2-process computations with ≤ 3 events per
// process, one optional message, and all boolean labelings of one variable
// — a brute-force sweep over structure space.
func TestExhaustiveTinyComputations(t *testing.T) {
	var comps []*computation.Computation
	for n1 := 0; n1 <= 3; n1++ {
		for n2 := 0; n2 <= 2; n2++ {
			for bits := 0; bits < 1<<uint(n1+n2+2); bits++ {
				comps = append(comps, tinyComp(n1, n2, -1, -1, bits))
				// One message from P1 event s to P2 after event r.
				for s := 1; s <= n1; s++ {
					for r := 0; r <= n2; r++ {
						comps = append(comps, tinyComp(n1, n2, s, r, bits))
					}
				}
			}
		}
	}
	p := predicate.Conj(varCmp(0, "b", predicate.EQ, 1), varCmp(1, "b", predicate.EQ, 1))
	d := p.Negate()
	for ci, comp := range comps {
		l := latticeOf(t, comp)
		if _, eg := EGLinear(comp, p); eg != explore.Holds(l, ctl.EG{F: ctl.Atom{P: p}}) {
			t.Fatalf("tiny %d: A1 disagrees", ci)
		}
		if _, ag := AGLinear(comp, p); ag != explore.Holds(l, ctl.AG{F: ctl.Atom{P: p}}) {
			t.Fatalf("tiny %d: A2 disagrees", ci)
		}
		if ef := EFLinear(comp, p); ef != explore.Holds(l, ctl.EF{F: ctl.Atom{P: p}}) {
			t.Fatalf("tiny %d: EF disagrees", ci)
		}
		if _, af := AFConjunctive(comp, p); af != explore.Holds(l, ctl.AF{F: ctl.Atom{P: p}}) {
			t.Fatalf("tiny %d: AF conj disagrees", ci)
		}
		if eg := EGDisjunctive(comp, d); eg != explore.Holds(l, ctl.EG{F: ctl.Atom{P: d}}) {
			t.Fatalf("tiny %d: EG disj disagrees", ci)
		}
		if path, eu := EUConjLinear(comp, p, p); eu != explore.Holds(l, ctl.EU{P: ctl.Atom{P: p}, Q: ctl.Atom{P: p}}) {
			t.Fatalf("tiny %d: A3 disagrees (path %v)", ci, path)
		}
	}
	if len(comps) < 1000 {
		t.Fatalf("systematic sweep too small: %d computations", len(comps))
	}
	t.Logf("validated %d tiny computations", len(comps))
}

// tinyComp builds a 2-process computation with n1/n2 internal events plus
// an optional message from P1's event s to a receive inserted on P2 right
// after its first r internal events, and boolean variable b per state
// taken from bits. The builder is fed P1 entirely first, so the receive
// can be placed at any position of P2.
func tinyComp(n1, n2, s, r, bits int) *computation.Computation {
	b := computation.NewBuilder(2)
	bit := func(i int) int { return (bits >> uint(i)) & 1 }
	b.SetInitial(0, "b", bit(0))
	b.SetInitial(1, "b", bit(1))
	var msg computation.Msg
	hasMsg := s >= 1 && s <= n1
	for k := 1; k <= n1; k++ {
		var e *computation.Event
		if hasMsg && k == s {
			e, msg = b.Send(0)
		} else {
			e = b.Internal(0)
		}
		computation.Set(e, "b", bit(1+k))
	}
	for k := 1; k <= n2; k++ {
		if hasMsg && k-1 == r {
			computation.Set(b.Receive(1, msg), "b", (r+bits)%2)
		}
		computation.Set(b.Internal(1), "b", bit(1+n1+k))
	}
	if hasMsg && r >= n2 {
		computation.Set(b.Receive(1, msg), "b", (r+bits)%2)
	}
	return b.MustBuild()
}

func ExampleDetect() {
	comp := sim.Fig4()
	f := ctl.MustParse("E[conj(z@P3 < 6, x@P1 < 4) U channelsEmpty && x@P1 > 1]")
	res, _ := Detect(comp, f)
	fmt.Println(res.Holds, res.Algorithm)
	// Output: true EU conjunctive/linear: Algorithm A3
}

// TestTable1GridMatchesLattice runs every cell of Table 1 through the
// dispatcher, one predicate per class row and each operator column, plus
// A3's E[p U q] and the A[p U q] composition, and compares each verdict
// with the explicit-lattice checker on small random computations.
func TestTable1GridMatchesLattice(t *testing.T) {
	ge1 := func(proc int) predicate.VarCmp {
		return predicate.VarCmp{Proc: proc, Var: "x0", Op: predicate.GE, K: 1}
	}
	le2 := func(proc int) predicate.VarCmp {
		return predicate.VarCmp{Proc: proc, Var: "x0", Op: predicate.LE, K: 2}
	}
	disj := predicate.Disj(ge1(0), ge1(1))
	rows := []predicate.Predicate{
		predicate.Conj(ge1(0), ge1(1)),
		disj,
		// x0 starts at 0, so the ≥ 1 rows fail at ∅ and EG and AG never
		// hold on them; these two rows let both verdicts occur.
		predicate.Conj(le2(0), le2(1)),
		predicate.Disj(le2(0), le2(1)),
		predicate.Stable{P: predicate.Received{ID: 1}},
		predicate.AndLinear{Ps: []predicate.Linear{predicate.Conj(ge1(0)), predicate.ChannelsEmpty{}}},
		predicate.ChannelsEmpty{},
		predicate.ObserverIndependent{P: disj},
		predicate.Fn{Name: "parity", F: func(c *computation.Computation, cut computation.Cut) bool {
			return cut.Size()%2 == 0 || cut.Equal(c.FinalCut())
		}},
	}
	p := predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 3})
	q := predicate.AndLinear{Ps: []predicate.Linear{predicate.Conj(ge1(1)), predicate.ChannelsEmpty{}}}
	fs := []ctl.Formula{
		ctl.EU{P: ctl.Atom{P: p}, Q: ctl.Atom{P: q}},
		ctl.AU{P: ctl.Atom{P: p.Negate()}, Q: ctl.Atom{P: predicate.Disj(ge1(1))}},
	}
	for _, row := range rows {
		a := ctl.Atom{P: row}
		fs = append(fs, ctl.EF{F: a}, ctl.AF{F: a}, ctl.EG{F: a}, ctl.AG{F: a})
	}
	for seed := int64(1); seed <= 8; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 10), seed)
		l := latticeOf(t, comp)
		for _, f := range fs {
			res, err := Detect(comp, f)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, f, err)
			}
			if want := explore.Holds(l, f); res.Holds != want {
				t.Errorf("seed %d %s: Detect = %v via %q, lattice %v", seed, f, res.Holds, res.Algorithm, want)
			}
		}
	}
}
