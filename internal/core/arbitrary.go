package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// This file holds the exponential fallback solvers for arbitrary
// predicates. They explore the cut space by memoized depth-first search
// without materializing the lattice; worst-case time and memory remain
// proportional to the lattice size, which is exponential in the number of
// processes. Table 1's intractable cells (arbitrary predicates everywhere,
// observer-independent predicates under EG and AG — Theorems 5 and 6) are
// served by these.

// EFArbitrary detects EF(p) for an arbitrary predicate by memoized search
// from ∅.
func EFArbitrary(comp *computation.Computation, p predicate.Predicate) bool {
	return efArbitrary(comp, p, nil)
}

func efArbitrary(comp *computation.Computation, p predicate.Predicate, st *Stats) bool {
	seen := computation.NewCutIndex(comp)
	cut := comp.InitialCut()
	var dfs func() bool
	dfs = func() bool {
		st.cuts(1)
		st.evals(1)
		if p.Eval(comp, cut) {
			return true
		}
		if _, added := seen.Insert(cut); !added {
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
		return false
	}
	return dfs()
}

// EGArbitrary detects EG(p) for an arbitrary predicate: is there a maximal
// cut sequence from ∅ to E with p at every cut?
func EGArbitrary(comp *computation.Computation, p predicate.Predicate) bool {
	return egArbitrary(comp, p, nil)
}

func egArbitrary(comp *computation.Computation, p predicate.Predicate, st *Stats) bool {
	final := comp.FinalCut()
	failed := computation.NewCutIndex(comp)
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
	failed := computation.NewCutIndex(comp)
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
