package core

import (
	"fmt"
	"time"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/pir"
	"repro/internal/predicate"
)

// Result reports the outcome of predicate detection.
type Result struct {
	// Holds is whether the computation satisfies the formula (at ∅).
	Holds bool
	// Algorithm names the algorithm that produced the answer, mirroring
	// the cells of the paper's Table 1.
	Algorithm string
	// Witness, when non-nil, is a sequence of consistent cuts evidencing a
	// positive answer (a p-path for EG, an until-prefix for EU, the least
	// satisfying cut for EF over linear predicates).
	Witness []computation.Cut
	// Counterexample, when non-nil, is a single cut evidencing a negative
	// answer (a cut violating an AG invariant).
	Counterexample computation.Cut
	// Stats records the work this run performed (cuts visited, predicate
	// evaluations, duration, …), aggregated over the boolean recursion.
	// Always non-nil on a successful Detect. Collection never influences
	// the verdict.
	Stats *Stats
}

// Detect decides whether the computation satisfies the CTL formula,
// routing each temporal operator to the most specific polynomial algorithm
// the predicate class admits and falling back to the exponential solver
// otherwise. Classification and algorithm selection live in the pir
// package (the executable Table 1); this file only executes the choice.
// Temporal operators must not be nested (the paper's fragment); boolean
// combinations of temporal formulas are evaluated recursively.
func Detect(comp *computation.Computation, f ctl.Formula) (Result, error) {
	st := &Stats{}
	start := time.Now()
	r, err := detect(comp, f, st)
	if err != nil {
		return r, err
	}
	st.Duration = time.Since(start)
	st.Algorithm = r.Algorithm
	st.WitnessLength = len(r.Witness)
	r.Stats = st
	st.publish()
	emitSpan(f.String(), r, st)
	emitSlow(f.String(), r, st)
	return r, nil
}

// detect is the recursive dispatcher; st aggregates work across the
// boolean structure of the formula.
func detect(comp *computation.Computation, f ctl.Formula, st *Stats) (Result, error) {
	switch g := f.(type) {
	case ctl.Not:
		r, err := detect(comp, g.F, st)
		if err != nil {
			return Result{}, err
		}
		out := Result{Holds: !r.Holds, Algorithm: "negation of " + r.Algorithm}
		// Evidence dualizes through negation: a counterexample cut to the
		// operand (say, a cut violating AG(p)) is precisely a witness for
		// the negation, and a single-cut witness to the operand (a
		// satisfying cut for EF(p)) refutes the negation. Path-shaped
		// witnesses have no single-cut dual and are dropped.
		if out.Holds {
			if r.Counterexample != nil {
				out.Witness = []computation.Cut{r.Counterexample}
			}
		} else if len(r.Witness) == 1 {
			out.Counterexample = r.Witness[0]
		}
		return out, nil
	case ctl.And:
		return detectBinary(comp, g.L, g.R, "&&", st)
	case ctl.Or:
		return detectBinary(comp, g.L, g.R, "||", st)
	case ctl.Atom:
		st.cuts(1)
		st.evals(1)
		return Result{
			Holds:     g.P.Eval(comp, comp.InitialCut()),
			Algorithm: "evaluation at the initial cut",
		}, nil
	case ctl.EF:
		p, err := compilePred(comp, g.F)
		if err != nil {
			return Result{}, err
		}
		return detectEF(comp, p, st), nil
	case ctl.AF:
		p, err := compilePred(comp, g.F)
		if err != nil {
			return Result{}, err
		}
		return detectAF(comp, p, st), nil
	case ctl.EG:
		p, err := compilePred(comp, g.F)
		if err != nil {
			return Result{}, err
		}
		return detectEG(comp, p, st), nil
	case ctl.AG:
		p, err := compilePred(comp, g.F)
		if err != nil {
			return Result{}, err
		}
		return detectAG(comp, p, st), nil
	case ctl.EU:
		p, err := compilePred(comp, g.P)
		if err != nil {
			return Result{}, err
		}
		q, err := compilePred(comp, g.Q)
		if err != nil {
			return Result{}, err
		}
		return detectEU(comp, p, q, st), nil
	case ctl.AU:
		p, err := compilePred(comp, g.P)
		if err != nil {
			return Result{}, err
		}
		q, err := compilePred(comp, g.Q)
		if err != nil {
			return Result{}, err
		}
		return detectAU(comp, p, q, st), nil
	default:
		return Result{}, fmt.Errorf("core: unsupported formula %T", f)
	}
}

func detectBinary(comp *computation.Computation, l, r ctl.Formula, op string, st *Stats) (Result, error) {
	a, err := detect(comp, l, st)
	if err != nil {
		return Result{}, err
	}
	// Short-circuit: when the left operand already decides the combination
	// the right operand is never compiled or run — it may route to the
	// exponential solver. The skip is recorded in the algorithm string and
	// in Stats.ShortCircuits, and the left result's evidence carries.
	if (op == "&&" && !a.Holds) || (op == "||" && a.Holds) {
		st.short(1)
		a.Algorithm = "(" + a.Algorithm + ") " + op + " (skipped)"
		return a, nil
	}
	// The left operand did not decide, so the combination's verdict is the
	// right operand's — and so is its evidence (a witness for an And both
	// conjuncts satisfy, a counterexample for an Or both disjuncts fail;
	// the right operand's evidence is the one attributable to this node).
	b, err := detect(comp, r, st)
	if err != nil {
		return Result{}, err
	}
	b.Algorithm = "(" + a.Algorithm + ") " + op + " (" + b.Algorithm + ")"
	return b, nil
}

// Compile lowers a non-temporal CTL formula to a predicate. It is a thin
// veneer over pir.Compile, kept for the public API; all normalization and
// classification live in the pir package.
func Compile(f ctl.Formula) (predicate.Predicate, error) {
	p, err := pir.Compile(f)
	if err != nil {
		return nil, err
	}
	return p.P, nil
}

// compilePred compiles the operand of a temporal operator into the IR and,
// in race-enabled test builds, cross-checks the inferred class against
// brute-force lattice classification (crossCheckClass is a no-op
// otherwise).
func compilePred(comp *computation.Computation, f ctl.Formula) (*pir.Pred, error) {
	p, err := pir.Compile(f)
	if err != nil {
		return nil, err
	}
	if err := crossCheckClass(comp, p); err != nil {
		return nil, err
	}
	return p, nil
}

func detectEF(comp *computation.Computation, p *pir.Pred, st *Stats) Result {
	c := pir.Choose(pir.OpEF, p)
	st.choice(c)
	var cut computation.Cut // the witness, for a cell that stops at one
	var holds bool
	switch c.Kind {
	case pir.KindStableFinal:
		s, _ := p.Stable()
		holds = efStable(comp, s, st)
	case pir.KindSplitOr:
		// EF distributes over disjunction: EF(a ∨ b) = EF(a) ∨ EF(b), so a
		// disjunction of structurally-detectable predicates stays polynomial.
		for _, part := range p.P.(predicate.Or).Ps {
			if holds = detectEF(comp, pir.FromPredicate(part), st).Holds; holds {
				break
			}
		}
	case pir.KindDisjunctiveScan:
		d, _ := p.Disjunctive()
		holds = efDisjunctive(comp, d, st)
	case pir.KindLinearLeast:
		l, _ := p.Bind(comp).Linear()
		cut, holds = leastCut(comp, l, st)
	case pir.KindPostLinearGreatest:
		pl, _ := p.Bind(comp).PostLinear()
		cut, holds = greatestCut(comp, pl, st)
	case pir.KindObserverWalk:
		oi, _ := p.ObserverBody()
		holds = detectObserverIndependent(comp, oi, st)
	case pir.KindSliceFactor:
		factor, rest, _ := p.Bind(comp).SliceFactor()
		cut, holds = efSliceFactor(comp, factor, rest, p.P, st)
	default:
		cut, holds = efArbitrary(comp, p.P, st)
	}
	r := Result{Holds: holds, Algorithm: c.Algorithm}
	if holds && cut != nil {
		r.Witness = []computation.Cut{cut}
	}
	return r
}

func detectAF(comp *computation.Computation, p *pir.Pred, st *Stats) Result {
	c := pir.Choose(pir.OpAF, p)
	st.choice(c)
	switch c.Kind {
	case pir.KindStableFinal:
		s, _ := p.Stable()
		return Result{Holds: efStable(comp, s, st), Algorithm: c.Algorithm}
	case pir.KindConjunctiveBoxes:
		cq, _ := p.Conjunctive()
		_, holds := afConjunctive(comp, cq, st)
		return Result{Holds: holds, Algorithm: c.Algorithm}
	case pir.KindDisjunctiveDualA1:
		nl, _ := p.Bind(comp).DisjunctiveComplement()
		_, eg := egLinear(comp, nl, comp.FinalCut(), st)
		return Result{Holds: !eg, Algorithm: c.Algorithm}
	case pir.KindObserverWalk:
		oi, _ := p.ObserverBody()
		return Result{Holds: detectObserverIndependent(comp, oi, st), Algorithm: c.Algorithm}
	default:
		// AF for general linear predicates is an open problem in the paper.
		return Result{Holds: !egArbitrary(comp, predicate.Not{P: p.P}, st), Algorithm: c.Algorithm}
	}
}

func detectEG(comp *computation.Computation, p *pir.Pred, st *Stats) Result {
	c := pir.Choose(pir.OpEG, p)
	st.choice(c)
	switch c.Kind {
	case pir.KindStableInitial:
		s, _ := p.Stable()
		return Result{Holds: egStable(comp, s, st), Algorithm: c.Algorithm}
	case pir.KindLinearA1:
		l, _ := p.Bind(comp).Linear()
		path, holds := egLinear(comp, l, comp.FinalCut(), st)
		return Result{Holds: holds, Algorithm: c.Algorithm, Witness: path}
	case pir.KindDisjunctiveDualBoxes:
		d, _ := p.Disjunctive()
		_, af := afConjunctive(comp, d.Negate(), st)
		return Result{Holds: !af, Algorithm: c.Algorithm}
	case pir.KindPostLinearA1Dual:
		pl, _ := p.Bind(comp).PostLinear()
		path, holds := egPostLinear(comp, pl, st)
		return Result{Holds: holds, Algorithm: c.Algorithm, Witness: path}
	default:
		// Theorem 5: NP-complete already for observer-independent predicates.
		return Result{Holds: egArbitrary(comp, p.P, st), Algorithm: c.Algorithm}
	}
}

func detectAG(comp *computation.Computation, p *pir.Pred, st *Stats) Result {
	c := pir.Choose(pir.OpAG, p)
	st.choice(c)
	switch c.Kind {
	case pir.KindStableInitial:
		s, _ := p.Stable()
		return Result{Holds: egStable(comp, s, st), Algorithm: c.Algorithm}
	case pir.KindSplitAnd:
		// AG distributes over conjunction: AG(a ∧ b) = AG(a) ∧ AG(b).
		for _, part := range p.P.(predicate.And).Ps {
			if sub := detectAG(comp, pir.FromPredicate(part), st); !sub.Holds {
				sub.Algorithm = "AG over ∧: split per conjunct (" + sub.Algorithm + ")"
				return sub // carries the counterexample when present
			}
		}
		return Result{Holds: true, Algorithm: c.Algorithm}
	case pir.KindLinearA2:
		l, _ := p.Bind(comp).Linear()
		cex, holds := agLinear(comp, l, st)
		return Result{Holds: holds, Algorithm: c.Algorithm, Counterexample: cex}
	case pir.KindDisjunctiveDualLeast:
		r := Result{Algorithm: c.Algorithm}
		// The least cut satisfying the conjunctive complement is a
		// counterexample to the invariant.
		nl, _ := p.Bind(comp).DisjunctiveComplement()
		if cex, found := leastCut(comp, nl, st); found {
			r.Counterexample = cex
		} else {
			r.Holds = true
		}
		return r
	case pir.KindPostLinearA2Dual:
		pl, _ := p.Bind(comp).PostLinear()
		cex, holds := agPostLinear(comp, pl, st)
		return Result{Holds: holds, Algorithm: c.Algorithm, Counterexample: cex}
	case pir.KindSliceFactor:
		// AG(¬q) = ¬EF(q): run the sliced search on q = factor ∧ rest.
		factor, rest, _ := p.Bind(comp).NegatedSliceFactor()
		inner := p.P.(predicate.Not).P
		cex, found := efSliceFactor(comp, factor, rest, inner, st)
		return Result{Holds: !found, Algorithm: c.Algorithm, Counterexample: cex}
	default:
		// Theorem 6: co-NP-complete already for observer-independent predicates.
		cex, found := efArbitrary(comp, predicate.Not{P: p.P}, st)
		return Result{Holds: !found, Algorithm: c.Algorithm, Counterexample: cex}
	}
}

func detectEU(comp *computation.Computation, p, q *pir.Pred, st *Stats) Result {
	c := pir.ChooseUntil(pir.OpEU, p, q)
	st.choice(c)
	switch c.Kind {
	case pir.KindUntilA3:
		lp, _ := p.Bind(comp).Linear()
		lq, _ := q.Bind(comp).Linear()
		path, holds := euConjLinear(comp, lp, lq, st)
		return Result{Holds: holds, Algorithm: c.Algorithm, Witness: path}
	case pir.KindUntilSplitOr:
		// The target distributes over disjunction for existential until:
		// E[p U (a ∨ b)] = E[p U a] ∨ E[p U b].
		for _, part := range q.P.(predicate.Or).Ps {
			if sub := detectEU(comp, p, pir.FromPredicate(part), st); sub.Holds {
				sub.Algorithm = "EU target over ∨: split (" + sub.Algorithm + ")"
				return sub
			}
		}
		return Result{Holds: false, Algorithm: c.Algorithm}
	case pir.KindUntilSplitDisj:
		// A disjunctive target splits into its locals the same way.
		for _, l := range q.P.(predicate.Disjunctive).Locals {
			if sub := detectEU(comp, p, pir.FromPredicate(predicate.Conj(l)), st); sub.Holds {
				sub.Algorithm = "EU target over disj: split (" + sub.Algorithm + ")"
				return sub
			}
		}
		return Result{Holds: false, Algorithm: c.Algorithm}
	default:
		return Result{Holds: euArbitrary(comp, p.P, q.P, st), Algorithm: c.Algorithm}
	}
}

func detectAU(comp *computation.Computation, p, q *pir.Pred, st *Stats) Result {
	c := pir.ChooseUntil(pir.OpAU, p, q)
	st.choice(c)
	if c.Kind == pir.KindUntilAUComposition {
		dp, _ := p.Disjunctive()
		dq, _ := q.Disjunctive()
		return Result{Holds: auDisjunctive(comp, dp, dq, st), Algorithm: c.Algorithm}
	}
	return Result{Holds: auArbitrary(comp, p.P, q.P, st), Algorithm: c.Algorithm}
}
