package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// EGLinear is Algorithm A1 of the paper: it detects EG(p) — controllable p
// — for a linear predicate p in O(n|E|) predicate evaluations.
//
// Starting from the final cut, the algorithm repeatedly moves to any
// predecessor cut that satisfies p. Theorem 2 shows that for linear
// predicates the arbitrary choice is safe: if any p-satisfying path from ∅
// to E exists, every run of this loop finds one, because the meet of the
// chosen cut with a cut on the real path is again a satisfying cut one
// step closer to ∅ (Lemma 1).
//
// The returned path, when ok, is a full maximal cut sequence
// ∅ = G0 ▷ … ▷ Gl = E with p true at every cut.
func EGLinear(comp *computation.Computation, p predicate.Predicate) (path []computation.Cut, ok bool) {
	return egLinear(comp, p, nil)
}

func egLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (path []computation.Cut, ok bool) {
	w := comp.FinalCut()
	// Step 1: the final cut itself must satisfy p.
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	initial := comp.InitialCut()
	rev := []computation.Cut{w.Copy()}
	// Step 2–6: walk down one event at a time.
	for !w.Equal(initial) {
		found := false
		for i := range w {
			if !comp.MaximalEvent(w, i) {
				continue
			}
			w[i]--
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				rev = append(rev, w.Copy())
				found = true
				break
			}
			w[i]++
		}
		if !found {
			return nil, false
		}
		st.advance(1)
	}
	// Step 7 is implicit: the loop only reaches ∅ through satisfying cuts.
	// Reverse into ∅ → E order.
	path = make([]computation.Cut, len(rev))
	for i, c := range rev {
		path[len(rev)-1-i] = c
	}
	return path, true
}

// EGPostLinear is the dual of Algorithm A1 for post-linear predicates: it
// walks from the initial cut towards the final cut, moving at each step to
// any successor cut satisfying p. The paper notes the same arbitrary-choice
// argument applies by lattice duality.
func EGPostLinear(comp *computation.Computation, p predicate.Predicate) (path []computation.Cut, ok bool) {
	return egPostLinear(comp, p, nil)
}

func egPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (path []computation.Cut, ok bool) {
	w := comp.InitialCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	final := comp.FinalCut()
	path = []computation.Cut{w.Copy()}
	for !w.Equal(final) {
		found := false
		for i := range w {
			if !comp.EnabledEvent(w, i) {
				continue
			}
			w[i]++
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				path = append(path, w.Copy())
				found = true
				break
			}
			w[i]--
		}
		if !found {
			return nil, false
		}
		st.advance(1)
	}
	return path, true
}

// EGLinearBacktracking is the ablation counterpart of A1: instead of
// trusting Theorem 2's arbitrary-choice argument it backtracks over every
// predecessor choice, memoizing failures. It returns identical answers on
// every input (tests verify this) at worst-case exponential cost — the
// point of the ablation bench.
func EGLinearBacktracking(comp *computation.Computation, p predicate.Predicate) bool {
	w := comp.FinalCut()
	if !p.Eval(comp, w) {
		return false
	}
	initial := comp.InitialCut()
	failed := computation.NewCutIndex(comp)
	var down func(w computation.Cut) bool
	down = func(w computation.Cut) bool {
		if w.Equal(initial) {
			return true
		}
		if _, ok := failed.Lookup(w); ok {
			return false
		}
		for i := range w {
			if !comp.MaximalEvent(w, i) {
				continue
			}
			w[i]--
			if p.Eval(comp, w) && down(w) {
				w[i]++
				return true
			}
			w[i]++
		}
		failed.Insert(w)
		return false
	}
	return down(w)
}
