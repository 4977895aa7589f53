package core

import (
	"time"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/slice"
)

// This file is the slice phase of detection: the KindSliceFactor cell
// routes EF(factor ∧ rest) — and, dually, AG(¬(factor ∧ rest)) — through
// the computation slice of the regular factor instead of the exponential
// cut-space search.
//
// Soundness rests on the Mittal–Garg characterization: a conjunctive
// predicate is regular, so its satisfying cuts form a sublattice whose
// least cut is I_p and whose least cut containing event e is J_p(e). The
// search below lists exactly that sublattice with lexWalk, so EF(factor ∧
// rest) holds iff rest holds at one of its cuts. Events whose J is nil
// appear in no satisfying cut and are never visited.
//
// The evidence is the lexically least cut satisfying factor ∧ rest: the
// unsliced solver walks in the same order and stops at the same cut.

// efSliceFactor decides EF(factor ∧ rest) over the factor's slice. whole
// is the original predicate factor ∧ rest, used only by the race-build
// cross-check against the explicit lattice.
func efSliceFactor(comp *computation.Computation, factor predicate.Linear, rest, whole predicate.Predicate, st *Stats) (computation.Cut, bool) {
	start := time.Now()
	sl := slice.NewIncremental(comp, factor)
	st.sliceBuild(time.Since(start))
	kept, eliminated := sl.Counts()
	st.sliceEvents(int64(kept), int64(eliminated))

	cut, holds := searchSlice(comp, sl, factor, rest, st)
	crossCheckSliceVerdict(comp, whole, cut, holds)
	return cut, holds
}

// searchSlice lists the slice sublattice in lexical order and returns the
// first cut where the arbitrary remainder holds.
func searchSlice(comp *computation.Computation, sl *slice.Slice, factor predicate.Linear, rest predicate.Predicate, st *Stats) (computation.Cut, bool) {
	ip, ok := sl.Least()
	if !ok {
		return nil, false // factor unsatisfiable: no cut satisfies the conjunction
	}
	guard := sliceGuard(comp, sl, factor)
	return lexWalk(comp, ip, sl.J, func(cut computation.Cut) bool {
		st.cuts(1)
		st.sliceCuts(1)
		// One word test per process confirms the cut stayed inside the
		// slice (guards against a factor/slice mismatch); any cut failing
		// it fails the factor, so skipping it is sound.
		if guard != nil && !guard.Eval(comp, cut) {
			return false
		}
		st.evals(1)
		return rest.Eval(comp, cut)
	})
}

// sliceGuard builds the slice-restricted evaluator for the factor when its
// lowering admits one: the per-process bitsets are narrowed to the local
// states the slice keeps alive — at least I_p[i], and not past the first
// eliminated event (deadness is monotone along a process: a cut containing
// a later event contains every earlier one).
func sliceGuard(comp *computation.Computation, sl *slice.Slice, factor predicate.Linear) *pir.LoweredConj {
	lc, ok := factor.(*pir.LoweredConj)
	if !ok {
		return nil
	}
	ip, ok := sl.Least()
	if !ok {
		return nil
	}
	masks := make([][]uint64, comp.N())
	words := make([]uint64, (comp.TotalEvents()+comp.N()*64)/64) // one backing for every mask
	for i := 0; i < comp.N(); i++ {
		hi := comp.Len(i)
		for k := 1; k <= comp.Len(i); k++ {
			if _, ok := sl.J(i, k); !ok {
				hi = k - 1
				break
			}
		}
		m := words[:(comp.Len(i)+1+63)/64]
		words = words[len(m):]
		for k := ip[i]; k <= hi; k++ {
			m[k>>6] |= 1 << (uint(k) & 63)
		}
		masks[i] = m
	}
	return lc.Restrict(masks)
}
