// Package pir is the predicate intermediate representation: the single
// classifier and compiler behind the paper's Table 1. A non-temporal
// formula is compiled once into a Pred carrying (a) the inferred class
// lattice of Section 2 (local / conjunctive / disjunctive / linear /
// post-linear / stable / observer-independent, or arbitrary when no
// structure is recognized), (b) a fast evaluator — conjunctions and
// disjunctions of local predicates are lowered to interned per-event
// bitsets so cut evaluation is word tests instead of AST walks — and
// (c) the detection algorithm Table 1 prescribes per CTL operator,
// with a machine-readable justification (see Choose).
//
// Every consumer classifies through this package: the offline detector
// (core.Detect), the explicit-lattice validator (explore.CrossCheckIR),
// the online monitors and the server (online.ParseConj), and the
// -explain output of hbdetect. There is deliberately no second
// classification code path in the repository.
package pir

import (
	"fmt"
	"strings"

	"repro/internal/ctl"
	"repro/internal/predicate"
)

// Class is a bitmask over the predicate classes of the paper's Section 2.
// Classes are not exclusive — every conjunctive predicate is also linear
// and post-linear, every disjunctive or stable predicate is
// observer-independent — and the mask records the whole chain so
// consumers can ask for the view they need.
type Class uint16

// The individual class bits. The zero mask is ClassArbitrary: nothing
// structural is known and detection falls back to the exponential solver.
const (
	ClassLocal Class = 1 << iota
	ClassConjunctive
	ClassDisjunctive
	ClassLinear
	ClassPostLinear
	ClassStable
	ClassObserverIndependent
)

// ClassArbitrary is the empty mask: no structure inferred.
const ClassArbitrary Class = 0

// Has reports whether every bit of x is set in c.
func (c Class) Has(x Class) bool { return c&x == x }

// classNames orders the bits for display: containment-coarser classes
// later, so "conjunctive, linear, post-linear" reads as a chain.
var classNames = []struct {
	bit  Class
	name string
}{
	{ClassLocal, "local"},
	{ClassConjunctive, "conjunctive"},
	{ClassDisjunctive, "disjunctive"},
	{ClassStable, "stable"},
	{ClassLinear, "linear"},
	{ClassPostLinear, "post-linear"},
	{ClassObserverIndependent, "observer-independent"},
}

// String renders the mask as a comma-separated chain, or "arbitrary".
func (c Class) String() string {
	if c == ClassArbitrary {
		return "arbitrary"
	}
	parts := make([]string, 0, len(classNames))
	for _, n := range classNames {
		if c&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ", ")
}

// Primary returns the most specific single class in the mask — the Table 1
// row detection dispatches on first.
func (c Class) Primary() string {
	if c == ClassArbitrary {
		return "arbitrary"
	}
	for _, n := range classNames {
		if c&n.bit != 0 {
			return n.name
		}
	}
	return "arbitrary"
}

// Pred is a compiled predicate: the IR node every consumer shares.
type Pred struct {
	// Source is the formula the predicate was compiled from; nil when the
	// Pred was built directly from a predicate value.
	Source ctl.Formula
	// P is the compiled predicate, normalized to preserve class structure
	// (negations of conjunctive predicates become disjunctive and vice
	// versa, conjunctions of conjunctive predicates merge, …).
	P predicate.Predicate
	// Class is the statically inferred class lattice of P. Inference is
	// sound with respect to the views below (each bit is backed by a
	// structural witness), and cross-checked against brute-force lattice
	// classification in race-enabled test builds (explore.CrossCheckIR).
	Class Class

	low *lowering // bitset lowering, non-nil after Bind
}

// Compile lowers a non-temporal CTL formula to a classified predicate,
// preserving as much class structure as possible so the dispatcher can
// pick polynomial algorithms: negations of conjunctive predicates become
// disjunctive (and vice versa), conjunctions of conjunctive predicates
// merge, disjunctions of disjunctive predicates merge.
func Compile(f ctl.Formula) (*Pred, error) {
	p, err := compile(f)
	if err != nil {
		return nil, err
	}
	pr := FromPredicate(p)
	pr.Source = f
	return pr, nil
}

// CompileSource parses src in the ctl syntax and compiles it; temporal
// operators are rejected. It is the entry point for the online monitors
// and the server, which accept predicates as text.
func CompileSource(src string) (*Pred, error) {
	f, err := ctl.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// FromPredicate wraps an already-built predicate in the IR, inferring its
// class from its structure.
func FromPredicate(p predicate.Predicate) *Pred {
	return &Pred{P: p, Class: Infer(p)}
}

// compile is the recursive normalizer (formerly core.Compile).
func compile(f ctl.Formula) (predicate.Predicate, error) {
	switch g := f.(type) {
	case ctl.Atom:
		return g.P, nil
	case ctl.Not:
		inner, err := compile(g.F)
		if err != nil {
			return nil, err
		}
		switch p := inner.(type) {
		case predicate.Conjunctive:
			return p.Negate(), nil
		case predicate.Disjunctive:
			return p.Negate(), nil
		case predicate.LocalPredicate:
			return predicate.NotLocal{P: p}, nil
		case predicate.Not:
			return p.P, nil
		case predicate.Const:
			return !p, nil
		default:
			return predicate.Not{P: inner}, nil
		}
	case ctl.And:
		a, err := compile(g.L)
		if err != nil {
			return nil, err
		}
		b, err := compile(g.R)
		if err != nil {
			return nil, err
		}
		ca, okA := conjunctiveView(a)
		cb, okB := conjunctiveView(b)
		if okA && okB {
			return predicate.MergeConj(ca, cb), nil
		}
		la, okA := linearView(a)
		lb, okB := linearView(b)
		if okA && okB {
			return predicate.AndLinear{Ps: []predicate.Linear{la, lb}}, nil
		}
		return predicate.And{Ps: []predicate.Predicate{a, b}}, nil
	case ctl.Or:
		a, err := compile(g.L)
		if err != nil {
			return nil, err
		}
		b, err := compile(g.R)
		if err != nil {
			return nil, err
		}
		da, okA := disjunctiveView(a)
		db, okB := disjunctiveView(b)
		if okA && okB {
			return predicate.Disjunctive{Locals: append(append([]predicate.LocalPredicate{}, da.Locals...), db.Locals...)}, nil
		}
		return predicate.Or{Ps: []predicate.Predicate{a, b}}, nil
	default:
		return nil, fmt.Errorf("pir: nested temporal operator %s is outside the paper's fragment", f)
	}
}

// Infer computes the class lattice of a predicate from its structure.
// Each bit is justified by a closure argument from Section 2:
//
//   - conjunctive ⟹ linear and post-linear (satisfying cuts are closed
//     under both meet and join — the predicate is regular);
//   - disjunctive ⟹ observer-independent (Proposition: a disjunction of
//     local predicates holds on some cut of one observation iff it holds
//     on some cut of every observation);
//   - stable ⟹ observer-independent (once true, stays true, so every
//     observer passes through a satisfying cut or none does);
//   - a single local predicate is both a one-conjunct conjunction and a
//     one-disjunct disjunction, hence everything above.
//
// Linear/post-linear bits otherwise come from the predicate's own
// interface implementations (the type carries the advancement property).
func Infer(p predicate.Predicate) Class {
	var c Class
	if _, ok := p.(predicate.LocalPredicate); ok {
		c |= ClassLocal
	}
	if _, ok := conjunctiveView(p); ok {
		c |= ClassConjunctive | ClassLinear | ClassPostLinear
	}
	if _, ok := disjunctiveView(p); ok {
		c |= ClassDisjunctive | ClassObserverIndependent
	}
	if _, ok := p.(predicate.Linear); ok {
		c |= ClassLinear
	}
	if _, ok := p.(predicate.PostLinear); ok {
		c |= ClassPostLinear
	}
	if _, ok := stableView(p); ok {
		c |= ClassStable | ClassObserverIndependent
	}
	if _, ok := p.(predicate.ObserverIndependent); ok {
		c |= ClassObserverIndependent
	}
	return c
}

// ---------------------------------------------------------------------------
// Typed views. These are the only class probes in the repository; the
// dispatcher, the compiler and Infer all go through them.

// conjunctiveView views p as a conjunctive predicate when possible;
// single local predicates are one-conjunct conjunctions.
func conjunctiveView(p predicate.Predicate) (predicate.Conjunctive, bool) {
	switch q := p.(type) {
	case predicate.Conjunctive:
		return q, true
	case predicate.LocalPredicate:
		return predicate.Conj(q), true
	default:
		return predicate.Conjunctive{}, false
	}
}

// disjunctiveView views p as a disjunctive predicate when possible.
func disjunctiveView(p predicate.Predicate) (predicate.Disjunctive, bool) {
	switch q := p.(type) {
	case predicate.Disjunctive:
		return q, true
	case predicate.LocalPredicate:
		return predicate.Disj(q), true
	default:
		return predicate.Disjunctive{}, false
	}
}

// linearView views p as a linear predicate when its type carries the
// advancement property.
func linearView(p predicate.Predicate) (predicate.Linear, bool) {
	switch q := p.(type) {
	case predicate.Linear:
		return q, true
	case predicate.LocalPredicate:
		return predicate.Conj(q), true
	default:
		return nil, false
	}
}

// postLinearView views p as a post-linear predicate.
func postLinearView(p predicate.Predicate) (predicate.PostLinear, bool) {
	switch q := p.(type) {
	case predicate.PostLinear:
		return q, true
	case predicate.LocalPredicate:
		return predicate.Conj(q), true
	default:
		return nil, false
	}
}

// stableView recognizes predicates known stable by construction.
func stableView(p predicate.Predicate) (predicate.Stable, bool) {
	switch q := p.(type) {
	case predicate.Stable:
		return q, true
	case predicate.Received, predicate.Terminated:
		return predicate.Stable{P: p}, true
	default:
		return predicate.Stable{}, false
	}
}

// observerView recognizes predicates known observer-independent by
// construction — explicitly asserted ones, stable ones, and disjunctive
// ones — and returns the predicate to hand to the single-observation
// walk.
func observerView(p predicate.Predicate) (predicate.Predicate, bool) {
	switch q := p.(type) {
	case predicate.ObserverIndependent:
		return q.P, true
	case predicate.Disjunctive:
		return q, true
	default:
		if s, ok := stableView(p); ok {
			return s, true
		}
		return nil, false
	}
}

// Conjunctive returns the conjunctive view of the predicate, when it has
// one. The view is structural (it exposes Locals); algorithms that only
// evaluate should prefer Linear, which is bitset-lowered after Bind.
func (pr *Pred) Conjunctive() (predicate.Conjunctive, bool) {
	return conjunctiveView(pr.P)
}

// Disjunctive returns the structural disjunctive view, when present.
func (pr *Pred) Disjunctive() (predicate.Disjunctive, bool) {
	return disjunctiveView(pr.P)
}

// ConjunctLocals returns the local conjuncts of a conjunctive predicate —
// the shape the online watches consume.
func (pr *Pred) ConjunctLocals() ([]predicate.LocalPredicate, bool) {
	c, ok := conjunctiveView(pr.P)
	if !ok {
		return nil, false
	}
	return c.Locals, true
}

// Linear returns the linear view — the bitset-lowered evaluator when the
// predicate is bound and lowerable, the structural predicate otherwise.
func (pr *Pred) Linear() (predicate.Linear, bool) {
	if pr.low != nil && pr.low.conj != nil {
		return pr.low.conj, true
	}
	return linearView(pr.P)
}

// PostLinear returns the post-linear view, lowered when available.
func (pr *Pred) PostLinear() (predicate.PostLinear, bool) {
	if pr.low != nil && pr.low.conj != nil {
		return pr.low.conj, true
	}
	return postLinearView(pr.P)
}

// Stable returns the stable view, when the predicate is stable by
// construction.
func (pr *Pred) Stable() (predicate.Stable, bool) {
	return stableView(pr.P)
}

// ObserverBody returns the predicate to evaluate along a single
// observation when the predicate is observer-independent by construction.
func (pr *Pred) ObserverBody() (predicate.Predicate, bool) {
	return observerView(pr.P)
}

// sliceFactorOf splits a predicate into a conjunctive (hence regular)
// factor and an arbitrary remainder: p ⟺ factor ∧ rest. It recognizes
// predicate.And with at least one conjunctive-viewable part (the shape
// the compiler produces for "conjunctive ∧ arbitrary") and, defensively,
// a bare conjunctive predicate (rest = true). The factor merges every
// conjunctive part; parts that are linear but not conjunctive (e.g.
// channelsEmpty) stay in the remainder — linearity alone is meet-closure,
// and the slice sublattice is only exact under meet- AND join-closure.
func sliceFactorOf(p predicate.Predicate) (predicate.Conjunctive, predicate.Predicate, bool) {
	if c, ok := conjunctiveView(p); ok {
		return c, predicate.True, true
	}
	and, ok := p.(predicate.And)
	if !ok {
		return predicate.Conjunctive{}, nil, false
	}
	var factor predicate.Conjunctive
	var rest []predicate.Predicate
	found := false
	for _, part := range and.Ps {
		if c, ok := conjunctiveView(part); ok {
			if !found {
				factor, found = c, true
			} else {
				factor = predicate.MergeConj(factor, c)
			}
			continue
		}
		rest = append(rest, part)
	}
	if !found {
		return predicate.Conjunctive{}, nil, false
	}
	switch len(rest) {
	case 0:
		return factor, predicate.True, true
	case 1:
		return factor, rest[0], true
	default:
		return factor, predicate.And{Ps: rest}, true
	}
}

// SliceFactor returns the predicate's regular factor as a linear
// evaluator (bitset-lowered after Bind) plus the arbitrary remainder
// (lowered too after Bind when it is disjunctive), when the structure
// admits one: p ⟺ factor ∧ rest. This is the shape
// the slice-first EF dispatch consumes — detection builds the factor's
// slice and searches only its sublattice.
func (pr *Pred) SliceFactor() (predicate.Linear, predicate.Predicate, bool) {
	factor, rest, ok := sliceFactorOf(pr.P)
	if !ok {
		return nil, nil, false
	}
	if pr.low != nil {
		if pr.low.factor != nil {
			return pr.low.factor, pr.low.rest, true
		}
		if pr.low.conj != nil {
			// Whole predicate is conjunctive (rest = true): reuse its lowering.
			return pr.low.conj, rest, true
		}
	}
	return factor, rest, true
}

// NegatedSliceFactor is the AG-side view: for p = ¬q where q has a slice
// factor, it returns q's factor and remainder, so AG(p) = ¬EF(q) can run
// the sliced search on q. Lowered after Bind, like SliceFactor.
func (pr *Pred) NegatedSliceFactor() (predicate.Linear, predicate.Predicate, bool) {
	n, ok := pr.P.(predicate.Not)
	if !ok {
		return nil, nil, false
	}
	factor, rest, ok := sliceFactorOf(n.P)
	if !ok {
		return nil, nil, false
	}
	if pr.low != nil && pr.low.factor != nil {
		return pr.low.factor, pr.low.rest, true
	}
	return factor, rest, true
}

// DisjunctiveComplement returns ¬p as a linear (conjunctive) predicate
// for a disjunctive p — the shape the dual algorithms (AF via A1, AG via
// advancement) consume. Bitset-lowered after Bind: the complement is the
// word-wise complement of the disjunct bitsets.
func (pr *Pred) DisjunctiveComplement() (predicate.Linear, bool) {
	if pr.low != nil && pr.low.negConj != nil {
		return pr.low.negConj, true
	}
	d, ok := disjunctiveView(pr.P)
	if !ok {
		return nil, false
	}
	return d.Negate(), true
}
