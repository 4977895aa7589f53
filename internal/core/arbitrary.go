package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// This file holds the exponential solvers for arbitrary predicates, which
// serve Table 1's intractable cells (Theorems 5 and 6). A computation has
// at most Π_i(|E_i|+1) ≤ (|E|/n+1)^n consistent cuts: exponential in n,
// polynomial in |E| for a fixed n. EF, and AG by duality, lists them in
// lexical order in O(n²) space (lexWalk); EG and EU search for a path and
// keep a memo table of the cuts that failed.

// EFArbitrary detects EF(p) for an arbitrary predicate by lexical
// enumeration from ∅.
func EFArbitrary(comp *computation.Computation, p predicate.Predicate) bool {
	_, holds := efArbitrary(comp, p, nil)
	return holds
}

// efArbitrary returns the lexically least cut satisfying p, if any.
func efArbitrary(comp *computation.Computation, p predicate.Predicate, st *Stats) (computation.Cut, bool) {
	least := func(i, k int) (computation.Cut, bool) {
		return computation.Cut(comp.Event(i, k).Clock), true
	}
	return lexWalk(comp, comp.InitialCut(), least, func(cut computation.Cut) bool {
		st.cuts(1)
		st.evals(1)
		return p.Eval(comp, cut)
	})
}

// EGArbitrary detects EG(p) for an arbitrary predicate: is there a maximal
// cut sequence from ∅ to E with p at every cut?
func EGArbitrary(comp *computation.Computation, p predicate.Predicate) bool {
	return egArbitrary(comp, p, nil)
}

func egArbitrary(comp *computation.Computation, p predicate.Predicate, st *Stats) bool {
	final := comp.FinalCut()
	return pathSearch(comp, st, func(cut computation.Cut) (bool, bool) {
		st.evals(1)
		if !p.Eval(comp, cut) {
			return true, false
		}
		return cut.Equal(final), true
	})
}

// pathSearch looks for a path of covers from ∅ along which arrive decides:
// at each cut it returns (true, hit) to end the path there, or (false, _)
// to go on to its successors. A cut whose successors all failed is kept in
// a memo table and not expanded again.
func pathSearch(comp *computation.Computation, st *Stats, arrive func(computation.Cut) (bool, bool)) bool {
	failed := computation.NewCutIndex(comp)
	cut := comp.InitialCut()
	var dfs func() bool
	dfs = func() bool {
		st.cuts(1)
		if decided, hit := arrive(cut); decided {
			return hit
		}
		if _, ok := failed.Lookup(cut); ok {
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
		failed.Insert(cut)
		return false
	}
	return dfs()
}

// AFArbitrary detects AF(p) by the duality AF(p) = ¬EG(¬p).
func AFArbitrary(comp *computation.Computation, p predicate.Predicate) bool {
	return !EGArbitrary(comp, predicate.Not{P: p})
}

// AGArbitrary detects AG(p) by the duality AG(p) = ¬EF(¬p).
func AGArbitrary(comp *computation.Computation, p predicate.Predicate) bool {
	return !EFArbitrary(comp, predicate.Not{P: p})
}

// EUArbitrary detects E[p U q] for arbitrary predicates by memoized search:
// a path on which p holds from ∅ until a cut satisfying q.
func EUArbitrary(comp *computation.Computation, p, q predicate.Predicate) bool {
	return euArbitrary(comp, p, q, nil)
}

func euArbitrary(comp *computation.Computation, p, q predicate.Predicate, st *Stats) bool {
	return pathSearch(comp, st, func(cut computation.Cut) (bool, bool) {
		st.evals(1)
		if q.Eval(comp, cut) {
			return true, true
		}
		st.evals(1)
		return !p.Eval(comp, cut), false
	})
}

// AUArbitrary detects A[p U q] via the standard expansion
// A[p U q] = ¬(EG(¬q) ∨ E[¬q U (¬p ∧ ¬q)]).
func AUArbitrary(comp *computation.Computation, p, q predicate.Predicate) bool {
	return auArbitrary(comp, p, q, nil)
}

func auArbitrary(comp *computation.Computation, p, q predicate.Predicate, st *Stats) bool {
	notP, notQ := predicate.Not{P: p}, predicate.Not{P: q}
	if egArbitrary(comp, notQ, st) {
		return false
	}
	return !euArbitrary(comp, notQ, predicate.And{Ps: []predicate.Predicate{notP, notQ}}, st)
}
