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
// predicate is regular, so its satisfying cuts form a sublattice generated
// by the least satisfying cut I_p and the per-event least cuts J_p(e).
// Every cut of that sublattice is reachable from I_p by joins with
// J_p(next event), so the search below enumerates exactly the factor's
// satisfying cuts — EF(factor ∧ rest) holds iff rest holds at one of them.
// Events whose J is nil appear in no satisfying cut and are never visited.
//
// The phase returns a bare verdict, matching the exponential solvers it
// replaces (they return bool, no witness), so Result evidence is
// bit-identical to the unsliced dispatch.

// efSliceFactor decides EF(factor ∧ rest) over the factor's slice. whole
// is the original predicate factor ∧ rest, used only by the race-build
// cross-check against the unsliced solver.
func efSliceFactor(comp *computation.Computation, factor predicate.Linear, rest, whole predicate.Predicate, st *Stats) bool {
	start := time.Now()
	sl := slice.NewIncremental(comp, factor)
	st.sliceBuild(time.Since(start))
	kept, eliminated := sl.Counts()
	st.sliceEvents(int64(kept), int64(eliminated))

	holds := searchSlice(comp, sl, factor, rest, st)
	crossCheckSliceVerdict(comp, whole, holds)
	return holds
}

// searchSlice enumerates the slice sublattice from I_p by J-joins,
// evaluating the arbitrary remainder at each cut.
func searchSlice(comp *computation.Computation, sl *slice.Slice, factor predicate.Linear, rest predicate.Predicate, st *Stats) bool {
	ip, ok := sl.Least()
	if !ok {
		return false // factor unsatisfiable: no cut satisfies the conjunction
	}
	guard := sliceGuard(comp, sl, factor)

	// The walk allocates nothing per cut: each J-join lands in next, a cut
	// is copied onto the flat stack only when the index first sees it, and
	// pops land in cut. LIFO pops with successors pushed in process order
	// fix the visiting order, hence every count and early exit.
	n := comp.N()
	seen := computation.NewCutIndex(comp)
	seen.Insert(ip)
	stack := append(make([]int, 0, 64*n), ip...)
	cut, next := make(computation.Cut, n), make(computation.Cut, n)
	for len(stack) > 0 {
		copy(cut, stack[len(stack)-n:])
		stack = stack[:len(stack)-n]
		st.cuts(1)
		st.sliceCuts(1)
		// One word test per process confirms the cut stayed inside the
		// slice (guards against a factor/slice mismatch); any cut failing
		// it fails the factor, so skipping it is sound.
		if guard != nil && !guard.Eval(comp, cut) {
			continue
		}
		st.evals(1)
		if rest.Eval(comp, cut) {
			return true
		}
		for i := range cut {
			if cut[i] >= comp.Len(i) {
				continue
			}
			jc, ok := sl.J(i, cut[i]+1)
			if !ok {
				continue // event eliminated: no satisfying cut contains it
			}
			for k := range next {
				next[k] = max(cut[k], jc[k])
			}
			if _, added := seen.Insert(next); added {
				stack = append(stack, next...)
			}
		}
	}
	return false
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
