// Package core implements the paper's predicate detection algorithms — the
// primary contribution of the reproduction.
//
// Detection answers "does the happened-before model of one computation
// satisfy this CTL formula?" without enumerating the exponential lattice of
// global states. The package provides:
//
//   - EF for linear predicates via the Chase–Garg advancement property,
//   - Algorithm A1: EG for linear predicates, O(n|E|) (Section 5),
//   - Algorithm A2: AG for linear predicates via Birkhoff's
//     meet-irreducible elements, O(n|E|) per check (Section 5),
//   - their duals for post-linear predicates,
//   - EF/AF for observer-independent predicates by a single observation,
//   - AF for conjunctive predicates (Garg–Waldecker strong conjunctive
//     detection), giving EG for disjunctive predicates by duality,
//   - Algorithm A3: E[p U q] for conjunctive p and linear q (Section 7),
//   - A[p U q] for disjunctive p, q via the EG/EU composition (Section 7),
//   - an exponential backtracking solver for arbitrary predicates, used on
//     the NP-complete cells of Table 1,
//   - Detect, a dispatcher that routes a CTL formula to the best algorithm
//     according to the predicate class, mirroring Table 1.
package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
	"repro/internal/slice"
)

// LeastCut computes I_p, the least consistent cut satisfying the linear
// predicate p, by the Chase–Garg advancement from ∅ (slice.Advance): while
// p fails, some forbidden process must advance, so the cut grows to
// include that process's next event and its causal closure. Runs in
// O(n|E|) cut updates plus one predicate evaluation per step.
//
// ok is false when no consistent cut satisfies p.
func LeastCut(comp *computation.Computation, p predicate.Linear) (computation.Cut, bool) {
	return leastCut(comp, p, nil)
}

func leastCut(comp *computation.Computation, p predicate.Linear, st *Stats) (computation.Cut, bool) {
	cut := comp.InitialCut()
	steps, ok := slice.Advance(comp, p, cut)
	// One evaluation per cut, one Forbidden call per step, and one more
	// Forbidden call when the run fails.
	n := int64(steps)
	st.cuts(n + 1)
	st.evals(n + 1)
	st.advance(n)
	if !ok {
		st.forbidden(n + 1)
		return nil, false
	}
	st.forbidden(n)
	return cut, true
}

// GreatestCut is the dual of LeastCut for post-linear predicates: it
// retreats from the final cut E, removing the last event of a retreat
// process and everything that causally depends on it, until p holds. A
// retreat is a meet with E − ↑last, not a join, so it has its own loop.
//
// ok is false when no consistent cut satisfies p.
func GreatestCut(comp *computation.Computation, p predicate.PostLinear) (computation.Cut, bool) {
	return greatestCut(comp, p, nil)
}

func greatestCut(comp *computation.Computation, p predicate.PostLinear, st *Stats) (computation.Cut, bool) {
	cut := comp.FinalCut()
	st.cuts(1)
	st.evals(1)
	for !p.Eval(comp, cut) {
		st.forbidden(1)
		i, ok := p.Retreat(comp, cut)
		if !ok {
			return nil, false
		}
		if cut[i] == 0 {
			return nil, false // retreat process already at its initial state
		}
		// Remove last and its causal up-set in place: the greatest
		// consistent cut below cut excluding last is cut ⊓ (E − ↑last). On
		// each process the included events that know last form a suffix;
		// keep the prefix before it.
		last := cut[i]
		for j := range cut {
			evs := comp.Events(j)
			lo, hi := 0, cut[j]
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if evs[mid].Clock[i] >= last {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			cut[j] = lo
		}
		st.advance(1)
		st.cuts(1)
		st.evals(1)
	}
	return cut, true
}

// EFLinear detects EF(p) — possibly p — for a linear predicate: the
// satisfying cuts form an inf-semilattice, so EF(p) holds exactly when
// LeastCut finds I_p.
func EFLinear(comp *computation.Computation, p predicate.Linear) bool {
	_, ok := LeastCut(comp, p)
	return ok
}

// EFPostLinear detects EF(p) for a post-linear predicate via GreatestCut.
func EFPostLinear(comp *computation.Computation, p predicate.PostLinear) bool {
	_, ok := GreatestCut(comp, p)
	return ok
}

// EFDisjunctive detects EF(p) for a disjunctive predicate in O(|E|) local
// predicate evaluations: some consistent cut satisfies ∨ l_i exactly when
// some local state of some process satisfies its local predicate, because
// every local state is exposed by at least one consistent cut (e.g. the
// down-set of the state's last event joined with nothing else).
func EFDisjunctive(comp *computation.Computation, p predicate.Disjunctive) bool {
	return efDisjunctive(comp, p, nil)
}

func efDisjunctive(comp *computation.Computation, p predicate.Disjunctive, st *Stats) bool {
	for _, l := range p.Locals {
		proc := l.Process()
		for k := 0; k <= comp.Len(proc); k++ {
			st.evals(1)
			if l.HoldsAt(comp, k) {
				return true
			}
		}
	}
	return false
}

// EFStable detects EF(p) for a stable predicate: once true p stays true, so
// it holds somewhere iff it holds at the final cut (Chandy–Lamport).
func EFStable(comp *computation.Computation, p predicate.Stable) bool {
	return efStable(comp, p, nil)
}

func efStable(comp *computation.Computation, p predicate.Stable, st *Stats) bool {
	st.cuts(1)
	st.evals(1)
	return p.Eval(comp, comp.FinalCut())
}

// AFStable detects AF(p) for a stable predicate; stable predicates are
// observer-independent, so definitely coincides with possibly.
func AFStable(comp *computation.Computation, p predicate.Stable) bool {
	return EFStable(comp, p)
}

// EGStable detects EG(p) for a stable predicate: a controllable stable
// predicate must hold at ∅ (every path starts there), and if it holds at ∅
// stability keeps it true along every path. The paper's Table 1 marks this
// cell "trivial".
func EGStable(comp *computation.Computation, p predicate.Stable) bool {
	return egStable(comp, p, nil)
}

func egStable(comp *computation.Computation, p predicate.Stable, st *Stats) bool {
	st.cuts(1)
	st.evals(1)
	return p.Eval(comp, comp.InitialCut())
}

// AGStable detects AG(p) for a stable predicate, which coincides with
// EGStable by the same argument.
func AGStable(comp *computation.Computation, p predicate.Stable) bool {
	return EGStable(comp, p)
}

// DetectObserverIndependent detects EF(p) — equivalently AF(p) — for an
// observer-independent predicate by walking a single observation (any
// maximal consistent cut sequence) and evaluating p at each of its |E|+1
// cuts, following Charron-Bost, Delporte-Gallet and Fauconnier.
func DetectObserverIndependent(comp *computation.Computation, p predicate.Predicate) bool {
	return detectObserverIndependent(comp, p, nil)
}

func detectObserverIndependent(comp *computation.Computation, p predicate.Predicate, st *Stats) bool {
	for _, cut := range comp.SomeLinearization() {
		st.cuts(1)
		st.evals(1)
		if p.Eval(comp, cut) {
			return true
		}
	}
	return false
}
