package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// AGLinear is Algorithm A2 of the paper: it detects AG(p) — invariant p —
// for a linear predicate p by evaluating p only at the meet-irreducible
// elements of the lattice and at the final cut.
//
// By Birkhoff's representation theorem every non-top element of a finite
// distributive lattice is the meet of the meet-irreducible elements above
// it (Corollary 4), and a linear predicate is closed under meets; so p
// holds everywhere iff it holds at M(L) ∪ {E}. The meet-irreducible
// elements are computed directly from the computation as E − ↑e for each
// event e — |E| cuts in O(n|E|) total — without constructing the lattice.
//
// When the invariant fails, the returned cut is a consistent counterexample
// cut violating p.
func AGLinear(comp *computation.Computation, p predicate.Predicate) (counterexample computation.Cut, ok bool) {
	return agLinear(comp, p, nil)
}

func agLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (counterexample computation.Cut, ok bool) {
	final := comp.FinalCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, final) {
		return final, false
	}
	cex := sweepMeetIrreducibles(comp, func(m computation.Cut) bool {
		st.cuts(1)
		st.evals(1)
		return p.Eval(comp, m)
	})
	return cex, cex == nil
}

// sweepMeetIrreducibles calls visit on M(e) = E − ↑e for every event e, by
// process and then by position, and returns a copy of the first cut visit
// rejects (nil when it accepts all). The cuts share one buffer, valid only
// during the call. For the events of process i, M(e)[j] counts the events
// of j with Clock[i] < e.Index (for j = i, the k−1 events before e), a
// prefix of j that only grows along i, so one monotone pointer per process
// makes the sweep O(n|E|) in all.
func sweepMeetIrreducibles(comp *computation.Computation, visit func(m computation.Cut) bool) computation.Cut {
	m := comp.InitialCut()
	for i := range m {
		clear(m)
		for k := 1; k <= comp.Len(i); k++ {
			for j := range m {
				evs := comp.Events(j)
				for m[j] < len(evs) && evs[m[j]].Clock[i] < k {
					m[j]++
				}
			}
			if !visit(m) {
				return m.Copy()
			}
		}
	}
	return nil
}

// AGPostLinear is the dual of Algorithm A2: a post-linear predicate is
// closed under joins, and every non-bottom element is the join of the
// join-irreducible elements below it (the down-sets ↓e), so AG(p) holds iff
// p holds at every ↓e and at the initial cut.
func AGPostLinear(comp *computation.Computation, p predicate.Predicate) (counterexample computation.Cut, ok bool) {
	return agPostLinear(comp, p, nil)
}

func agPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (counterexample computation.Cut, ok bool) {
	j := comp.InitialCut()
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, j) {
		return j, false
	}
	// ↓e is e's clock read as a cut; evaluate it in one reused cut.
	for i := range j {
		for _, e := range comp.Events(i) {
			copy(j, e.Clock)
			st.cuts(1)
			st.evals(1)
			if !p.Eval(comp, j) {
				return j, false
			}
		}
	}
	return nil, true
}

// MeetIrreducibles returns the meet-irreducible cuts of the lattice of comp
// by the Birkhoff formula M(e) = E − ↑e, one per event, without building
// the lattice. The ablation bench compares this against degree-counting on
// the explicit lattice.
func MeetIrreducibles(comp *computation.Computation) []computation.Cut {
	var out []computation.Cut
	sweepMeetIrreducibles(comp, func(m computation.Cut) bool {
		out = append(out, m.Copy())
		return true
	})
	return out
}

// JoinIrreducibles returns the join-irreducible cuts ↓e, one per event.
func JoinIrreducibles(comp *computation.Computation) []computation.Cut {
	var out []computation.Cut
	for i := 0; i < comp.N(); i++ {
		for _, e := range comp.Events(i) {
			out = append(out, comp.DownSet(e))
		}
	}
	return out
}
