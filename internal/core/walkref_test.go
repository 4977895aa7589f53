package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/slice"
)

// The memoized path searches (EG and EU) name cuts by
// computation.CutIndex. This file keeps their string-keyed predecessors as
// references: on the same inputs the indexed walks must visit the same
// cuts in the same order, so verdicts and every Stats counter agree
// exactly. The lexical walks (EF and the slice search) are compared with
// a brute-force reference instead: the explicit lattice's cuts, sorted.
// A1's backtracking counterpart, the baseline of the A1 ablation, lives
// here too.

// cutKey is the varint string the walks used to key their maps by.
func cutKey(c computation.Cut) string {
	buf := make([]byte, 0, len(c)*3)
	for _, x := range c {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return string(buf)
}

// lexCuts returns the explicit lattice's cuts in lexical order.
func lexCuts(tb testing.TB, comp *computation.Computation) []computation.Cut {
	cuts := slices.Clone(latticeOf(tb, comp).Cuts())
	slices.SortFunc(cuts, slices.Compare[computation.Cut])
	return cuts
}

// refLexSearchSlice walks the slice's cuts, the lexically sorted lattice
// cuts that sl.Sat accepts, until the remainder holds, counting as
// searchSlice counts.
func refLexSearchSlice(cuts []computation.Cut, comp *computation.Computation, sl *slice.Slice, factor predicate.Linear, rest predicate.Predicate, st *Stats) (computation.Cut, bool) {
	guard := sliceGuard(comp, sl, factor)
	for _, cut := range cuts {
		if !sl.Sat(cut) {
			continue
		}
		st.cuts(1)
		st.sliceCuts(1)
		if guard != nil && !guard.Eval(comp, cut) {
			continue
		}
		st.evals(1)
		if rest.Eval(comp, cut) {
			return cut, true
		}
	}
	return nil, false
}

// refLexEFArbitrary walks the lexically sorted lattice cuts until p
// holds, counting as efArbitrary counts.
func refLexEFArbitrary(cuts []computation.Cut, comp *computation.Computation, p predicate.Predicate, st *Stats) (computation.Cut, bool) {
	for _, cut := range cuts {
		st.cuts(1)
		st.evals(1)
		if p.Eval(comp, cut) {
			return cut, true
		}
	}
	return nil, false
}

func refEGArbitrary(comp *computation.Computation, p predicate.Predicate, st *Stats) bool {
	final := comp.FinalCut()
	failed := make(map[string]bool)
	cut := comp.InitialCut()
	var dfs func() bool
	dfs = func() bool {
		st.cuts(1)
		st.evals(1)
		if !p.Eval(comp, cut) {
			return false
		}
		if cut.Equal(final) {
			return true
		}
		key := cutKey(cut)
		if failed[key] {
			st.memo(1)
			return false
		}
		for i := range cut {
			if comp.EnabledEvent(cut, i) {
				cut[i]++
				hit := dfs()
				cut[i]--
				if hit {
					return true
				}
			}
		}
		failed[key] = true
		return false
	}
	return dfs()
}

func refEUArbitrary(comp *computation.Computation, p, q predicate.Predicate, st *Stats) bool {
	failed := make(map[string]bool)
	cut := comp.InitialCut()
	var dfs func() bool
	dfs = func() bool {
		st.cuts(1)
		st.evals(1)
		if q.Eval(comp, cut) {
			return true
		}
		st.evals(1)
		if !p.Eval(comp, cut) {
			return false
		}
		key := cutKey(cut)
		if failed[key] {
			st.memo(1)
			return false
		}
		for i := range cut {
			if comp.EnabledEvent(cut, i) {
				cut[i]++
				hit := dfs()
				cut[i]--
				if hit {
					return true
				}
			}
		}
		failed[key] = true
		return false
	}
	return dfs()
}

// refEGLinearBacktracking is the ablation counterpart of A1: instead of
// trusting Theorem 2's arbitrary-choice argument it backtracks down from
// E over every predecessor choice, memoizing failures by string key. It
// returns A1's verdict at worst-case exponential cost, which is what
// BenchmarkAblationA1VsBacktracking measures.
func refEGLinearBacktracking(comp *computation.Computation, p predicate.Predicate, st *Stats) bool {
	w := comp.FinalCut()
	st.evals(1)
	if !p.Eval(comp, w) {
		return false
	}
	initial := comp.InitialCut()
	failed := make(map[string]bool)
	var down func(w computation.Cut) bool
	down = func(w computation.Cut) bool {
		if w.Equal(initial) {
			return true
		}
		key := cutKey(w)
		if failed[key] {
			return false
		}
		for i := range w {
			if !comp.MaximalEvent(w, i) {
				continue
			}
			w[i]--
			st.evals(1)
			if p.Eval(comp, w) && down(w) {
				w[i]++
				return true
			}
			w[i]++
		}
		failed[key] = true
		return false
	}
	return down(w)
}

// BenchmarkAblationA1VsBacktracking is design decision 3's ablation on
// sim.Grid(6, 6): EG(conj(c != 1)) is false, so the backtracking walk
// explores every cut above the barrier before giving up while A1 walks a
// single path down to it. Both must return the same verdict.
func BenchmarkAblationA1VsBacktracking(b *testing.B) {
	comp := sim.Grid(6, 6)
	var locals []predicate.LocalPredicate
	for p := 0; p < 6; p++ {
		locals = append(locals, predicate.VarCmp{Proc: p, Var: "c", Op: predicate.NE, K: 1})
	}
	barrier := predicate.Conjunctive{Locals: locals}
	if _, a1 := EGLinear(comp, barrier); a1 != refEGLinearBacktracking(comp, barrier, nil) {
		b.Fatalf("A1 EG = %v, backtracking disagrees", a1)
	}
	b.Run("A1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EGLinear(comp, barrier)
		}
	})
	b.Run("Backtracking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refEGLinearBacktracking(comp, barrier, nil)
		}
	})
}

// walkBattery returns the predicates the walks are compared on: the
// conjunctive battery, its negations, a disjunction with a channel
// predicate, and a class-free coordinate test.
func walkBattery(rng *rand.Rand, comp *computation.Computation) []predicate.Predicate {
	var ps []predicate.Predicate
	for _, c := range conjBattery(comp) {
		ps = append(ps, c, predicate.Not{P: c})
	}
	ps = append(ps,
		predicate.Or{Ps: []predicate.Predicate{conjBattery(comp)[0], predicate.ChannelsEmpty{}}},
		randomSliceRemainder(rng, comp),
		predicate.True,
	)
	return ps
}

func TestWalksMatchStringKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for ci, comp := range testComps(t) {
		ps := walkBattery(rng, comp)
		for pi, p := range ps {
			q := ps[(pi+1)%len(ps)]
			type walk struct {
				name     string
				got, ref func(*Stats) bool
			}
			walks := []walk{
				{"EG", func(st *Stats) bool { return egArbitrary(comp, p, st) },
					func(st *Stats) bool { return refEGArbitrary(comp, p, st) }},
				{"EU", func(st *Stats) bool { return euArbitrary(comp, p, q, st) },
					func(st *Stats) bool { return refEUArbitrary(comp, p, q, st) }},
			}
			for _, w := range walks {
				var got, ref Stats
				if g, r := w.got(&got), w.ref(&ref); g != r || got != ref {
					t.Fatalf("comp %d %s(%s): got %v %+v, reference %v %+v", ci, w.name, p, g, got, r, ref)
				}
			}
		}
	}
}

// TestLexWalksMatchBruteForceReference pins the lexical walks exactly:
// efArbitrary and searchSlice must stop at the reference's cut after the
// reference's counts, on every input.
func TestLexWalksMatchBruteForceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3232))
	compared := 0
	for ci, comp := range testComps(t) {
		cuts := lexCuts(t, comp)
		for _, p := range walkBattery(rng, comp) {
			var got, ref Stats
			g, gok := efArbitrary(comp, p, &got)
			r, rok := refLexEFArbitrary(cuts, comp, p, &ref)
			if gok != rok || !cutsEqual(g, r) || got != ref {
				t.Fatalf("comp %d EF(%s): got %v %v %+v, reference %v %v %+v", ci, p, gok, g, got, rok, r, ref)
			}
		}
		for _, factor := range conjBattery(comp) {
			if len(factor.Locals) == 0 {
				continue
			}
			rests := []predicate.Predicate{
				predicate.False,
				randomSliceRemainder(rng, comp),
				predicate.Disjunctive{Locals: []predicate.LocalPredicate{
					predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.GE, K: 2},
					predicate.VarCmp{Proc: comp.N() - 1, Var: "x0", Op: predicate.LT, K: 0},
				}},
			}
			for _, rest := range rests {
				// Route through the IR as detection does, so the lowered
				// factor and remainder are the ones compared.
				pr := pir.FromPredicate(predicate.And{Ps: []predicate.Predicate{factor, rest}}).Bind(comp)
				lf, lrest, ok := pr.SliceFactor()
				if !ok {
					t.Fatalf("comp %d: %s has no slice factor", ci, pr.P)
				}
				sl := slice.NewIncremental(comp, lf)
				var got, ref Stats
				g, gok := searchSlice(comp, sl, lf, lrest, &got)
				r, rok := refLexSearchSlice(cuts, comp, sl, lf, rest, &ref)
				if gok != rok || !cutsEqual(g, r) || got != ref {
					t.Fatalf("comp %d factor %s rest %s: got %v %v %+v, reference %v %v %+v", ci, factor, rest, gok, g, got, rok, r, ref)
				}
				compared++
			}
		}
	}
	// The shape the benchmark measures, small enough to enumerate.
	for seed := int64(0); seed < 4; seed++ {
		comp, factor, rest := edgeShape(4, 24, 3, seed)
		sl := slice.NewIncremental(comp, factor)
		var got, ref Stats
		g, gok := searchSlice(comp, sl, factor, rest, &got)
		r, rok := refLexSearchSlice(lexCuts(t, comp), comp, sl, factor, rest, &ref)
		if gok != rok || !cutsEqual(g, r) || got != ref {
			t.Fatalf("edge shape seed %d: got %v %v %+v, reference %v %v %+v", seed, gok, g, got, rok, r, ref)
		}
	}
	if compared == 0 {
		t.Fatal("no slice search compared")
	}
}
