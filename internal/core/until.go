package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// EUConjLinear is Algorithm A3 of the paper: it detects E[p U q] for a
// conjunctive predicate p and a linear predicate q in polynomial time.
//
// By Theorem 7 it suffices to look for a path from ∅ to I_q — the least
// consistent cut satisfying q — with p holding at every cut strictly below
// I_q. Step 1 finds I_q by the advancement algorithm; Step 2 checks EG(p)
// with Algorithm A1 on the sub-computations I_q − {e} for each maximal
// event e of I_q (every path into I_q passes through one of them).
//
// The returned path, when ok, runs ∅ … I_q with q at the last cut and p at
// all earlier ones. As the paper's footnote notes, q need not be fully
// linear: the Linear interface only exercises the least-satisfying-cut
// property.
func EUConjLinear(comp *computation.Computation, p predicate.Conjunctive, q predicate.Linear) (path []computation.Cut, ok bool) {
	return euConjLinear(comp, p, q, nil)
}

// euConjLinear takes p as any evaluator of a conjunctive predicate — the
// dispatcher passes its bitset lowering. Step 2 runs A1 on the sub-lattice
// [∅, g] of comp itself: the cuts below g are exactly the cuts of the
// prefix computation g, with the same local states.
func euConjLinear(comp *computation.Computation, p predicate.Predicate, q predicate.Linear, st *Stats) (path []computation.Cut, ok bool) {
	// Step 1: find I_q.
	iq, ok := leastCut(comp, q, st)
	if !ok {
		return nil, false // q holds nowhere, so no until-prefix can end
	}
	if iq.Size() == 0 {
		return []computation.Cut{iq}, true // q holds initially (k = 0 prefix)
	}
	// Step 2: EG(p) on each one-event-smaller prefix of I_q.
	g := iq.Copy()
	for i := range iq {
		if !comp.MaximalEvent(iq, i) {
			continue
		}
		g[i]--
		if egPath, holds := egLinear(comp, p, g, st); holds {
			// Extend the witness through I_q itself.
			return append(egPath, iq), true
		}
		g[i]++
	}
	return nil, false
}

// (The footnote to Theorem 7 is honored by construction: EUConjLinear only
// exercises q's least-satisfying-cut property through LeastCut, so any
// Linear implementation whose Forbidden is sound — even for a predicate
// whose satisfying set is not meet-closed but has a least element — is
// detected correctly. TestA3FootnoteLeastCutProperty pins this.)

// AUDisjunctive detects A[p U q] for disjunctive predicates p and q using
// the paper's composition
//
//	A[p U q] ⟺ ¬( EG(¬q) ∨ E[¬q U (¬p ∧ ¬q)] )
//
// where ¬q is conjunctive (detected by Algorithm A1 under EG) and
// ¬p ∧ ¬q is conjunctive, hence linear (detected by Algorithm A3 under EU).
// Total cost O(n|E|) predicate evaluations.
func AUDisjunctive(comp *computation.Computation, p, q predicate.Disjunctive) bool {
	return auDisjunctive(comp, p, q, nil)
}

func auDisjunctive(comp *computation.Computation, p, q predicate.Disjunctive, st *Stats) bool {
	notQ := q.Negate()
	if _, eg := egLinear(comp, notQ, comp.FinalCut(), st); eg {
		return false // some full path avoids q entirely
	}
	bad := predicate.MergeConj(p.Negate(), notQ)
	if _, eu := euConjLinear(comp, notQ, bad, st); eu {
		return false // some path reaches ¬p∧¬q with q never seen before
	}
	return true
}
