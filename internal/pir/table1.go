package pir

// This file is the executable form of the paper's Table 1: given a CTL
// operator and a compiled predicate, Choose returns which detection
// algorithm applies, with the cell, complexity, and justification. The
// probe order per operator is part of the contract — e.g. a bare local
// predicate under EF routes to the disjunctive scan, not the advancement
// — and the golden Table 1 test pins every (class × operator) cell.

import "repro/internal/predicate"

// Op is a CTL temporal operator.
type Op string

// The temporal operators of the paper's fragment.
const (
	OpEF Op = "EF"
	OpAF Op = "AF"
	OpEG Op = "EG"
	OpAG Op = "AG"
	OpEU Op = "EU"
	OpAU Op = "AU"
)

// Kind identifies the detection strategy a Choice selects. The dispatcher
// switches on it; everything else in Choice is reporting.
type Kind int

// The detection strategies of Table 1 plus the structural splits.
const (
	// KindStableFinal evaluates a stable predicate at the final cut (EF/AF).
	KindStableFinal Kind = iota
	// KindStableInitial evaluates a stable predicate at the initial cut (EG/AG).
	KindStableInitial
	// KindSplitOr distributes EF over ∨.
	KindSplitOr
	// KindSplitAnd distributes AG over ∧.
	KindSplitAnd
	// KindDisjunctiveScan scans local states for EF of a disjunction.
	KindDisjunctiveScan
	// KindLinearLeast finds the least satisfying cut by advancement (EF).
	KindLinearLeast
	// KindPostLinearGreatest is the dual advancement (EF post-linear).
	KindPostLinearGreatest
	// KindObserverWalk evaluates along a single observation.
	KindObserverWalk
	// KindConjunctiveBoxes is Garg–Waldecker interval boxes (AF conjunctive).
	KindConjunctiveBoxes
	// KindDisjunctiveDualA1 detects AF of a disjunction as ¬EG(¬p) via A1.
	KindDisjunctiveDualA1
	// KindLinearA1 is Algorithm A1 (EG linear).
	KindLinearA1
	// KindDisjunctiveDualBoxes detects EG of a disjunction as ¬AF(¬p).
	KindDisjunctiveDualBoxes
	// KindPostLinearA1Dual is the dual Algorithm A1 (EG post-linear).
	KindPostLinearA1Dual
	// KindLinearA2 is Algorithm A2 over meet-irreducibles (AG linear).
	KindLinearA2
	// KindDisjunctiveDualLeast detects AG of a disjunction as ¬EF(¬p).
	KindDisjunctiveDualLeast
	// KindPostLinearA2Dual is Algorithm A2 over join-irreducibles.
	KindPostLinearA2Dual
	// KindUntilA3 is Algorithm A3 (EU, conjunctive/linear).
	KindUntilA3
	// KindUntilSplitOr distributes the EU target over ∨.
	KindUntilSplitOr
	// KindUntilSplitDisj splits a disjunctive EU target into its locals.
	KindUntilSplitDisj
	// KindUntilAUComposition is the AU composition of Section 7.
	KindUntilAUComposition
	// KindExponential is the exponential search over all cuts.
	KindExponential
	// KindSliceFactor routes an otherwise-exponential EF/AG through the
	// computation slice of a conjunctive factor: EF(c ∧ r) enumerates
	// only the slice sublattice of the regular factor c, evaluating the
	// arbitrary remainder r per slice cut (AG dually, via ¬EF).
	KindSliceFactor
)

// SlicePlan is the slicing decision attached to every Choice: whether
// detection routes through the computation slice (Mittal–Garg), and the
// machine-readable justification either way. The -explain output prints
// it, and the dispatcher consults Sliced via Kind == KindSliceFactor.
type SlicePlan struct {
	// Sliced is whether detection runs over the slice sublattice instead
	// of the full cut lattice.
	Sliced bool
	// Factor renders the regular (conjunctive) factor whose slice
	// restricts the search; empty when not sliced.
	Factor string
	// Why justifies the decision: why the slice applies, or why the
	// chosen algorithm does not benefit from one.
	Why string
}

// String renders the plan for diagnostics and -explain.
func (sp SlicePlan) String() string {
	if sp.Sliced {
		return "sliced on " + sp.Factor + " — " + sp.Why
	}
	return "not sliced — " + sp.Why
}

// Slicing justifications for the non-sliced cells, one per family of
// Table 1 kinds. These are reporting strings (pinned by the explain
// goldens), not dispatch inputs.
const (
	sliceWhyStable   = "stable predicates are constant-work: one evaluation at a fixed cut beats building any slice"
	sliceWhySplit    = "the split children are dispatched separately, each with its own slicing decision"
	sliceWhyScan     = "the local-state scan is already O(|E|); slice construction alone costs more"
	sliceWhyAdvance  = "the advancement is already O(n|E|); building the slice costs the same n advancement runs with no asymptotic win (measured: EXPERIMENTS.md, Ablations, item 4)"
	sliceWhyDual     = "the dual advancement on the conjunctive complement is already polynomial; the complement's slice would answer the same query at the same cost"
	sliceWhyObserver = "one linearization decides; no lattice is searched, so there is nothing to slice"
	sliceWhyBoxes    = "the interval-box scan works on local true-intervals, not cuts; no lattice is searched"
	sliceWhyNoFactor = "no conjunctive (regular) factor to slice on: the slice sublattice is only exact for regular predicates"
	sliceWhyUntil    = "the until path constraint is not preserved by slice joins: a p-path between slice cuts may leave the slice, so slice-jumping is unsound for EU/AU"
	sliceWhyPath     = "the search needs a one-event-at-a-time chain and already abandons a path at its first failing cut; slice joins skip cuts the chain must pass through"
)

// withSlice attaches the slicing decision for the non-sliced kinds; the
// KindSliceFactor constructors set their plan inline.
func (c Choice) withSlice() Choice {
	switch c.Kind {
	case KindStableFinal, KindStableInitial:
		c.Slice = SlicePlan{Why: sliceWhyStable}
	case KindSplitOr, KindSplitAnd, KindUntilSplitOr, KindUntilSplitDisj:
		c.Slice = SlicePlan{Why: sliceWhySplit}
	case KindDisjunctiveScan:
		c.Slice = SlicePlan{Why: sliceWhyScan}
	case KindLinearLeast, KindPostLinearGreatest, KindLinearA1, KindPostLinearA1Dual,
		KindLinearA2, KindPostLinearA2Dual:
		c.Slice = SlicePlan{Why: sliceWhyAdvance}
	case KindDisjunctiveDualA1, KindDisjunctiveDualBoxes, KindDisjunctiveDualLeast:
		c.Slice = SlicePlan{Why: sliceWhyDual}
	case KindObserverWalk:
		c.Slice = SlicePlan{Why: sliceWhyObserver}
	case KindConjunctiveBoxes:
		c.Slice = SlicePlan{Why: sliceWhyBoxes}
	case KindUntilA3, KindUntilAUComposition:
		c.Slice = SlicePlan{Why: sliceWhyUntil}
	case KindExponential:
		switch c.Op {
		case OpEU, OpAU:
			c.Slice = SlicePlan{Why: sliceWhyUntil}
		case OpEG, OpAF:
			c.Slice = SlicePlan{Why: sliceWhyPath}
		default:
			c.Slice = SlicePlan{Why: sliceWhyNoFactor}
		}
	}
	return c
}

// Choice is the outcome of Table 1 dispatch for one operator application.
type Choice struct {
	// Op is the operator dispatched on.
	Op Op
	// Kind selects the detection strategy; the dispatcher switches on it.
	Kind Kind
	// Algorithm is the human-readable algorithm name, verbatim the string
	// detection reports in Result.Algorithm.
	Algorithm string
	// Cell is the Table 1 cell, "row × column".
	Cell string
	// Complexity is the asymptotic cost in predicate evaluations (n
	// processes, |E| events, m true-intervals).
	Complexity string
	// Reason is the justification chain: which class was inferred and why
	// that class admits this algorithm.
	Reason string
	// Slice is the slicing decision: whether detection routes through the
	// computation slice, with justification either way.
	Slice SlicePlan
}

// Choose dispatches a unary temporal operator over a compiled predicate,
// returning the Table 1 cell that applies. The probe order transcribes
// the paper: stable first (constant-work), then the structural splits,
// then the most specific polynomial class, then the exponential fallback.
func Choose(op Op, p *Pred) Choice {
	switch op {
	case OpEF:
		return chooseEF(p).withSlice()
	case OpAF:
		return chooseAF(p).withSlice()
	case OpEG:
		return chooseEG(p).withSlice()
	case OpAG:
		return chooseAG(p).withSlice()
	default:
		panic("pir: Choose called with binary operator " + string(op))
	}
}

func chooseEF(p *Pred) Choice {
	if _, ok := p.Stable(); ok {
		return Choice{OpEF, KindStableFinal, "EF stable: evaluate at the final cut",
			"stable × EF", "O(1) cuts",
			"stable: satisfying cuts are upward-closed, so EF(p) ⟺ p at the final cut", SlicePlan{}}
	}
	if _, ok := p.P.(predicate.Or); ok {
		return Choice{OpEF, KindSplitOr, "EF over ∨: split per disjunct",
			"boolean ∨ × EF", "sum over disjuncts",
			"EF distributes over disjunction: EF(a ∨ b) = EF(a) ∨ EF(b)", SlicePlan{}}
	}
	if _, ok := p.Disjunctive(); ok {
		return Choice{OpEF, KindDisjunctiveScan, "EF disjunctive: local state scan",
			"disjunctive × EF", "O(|E|) local states",
			"disjunctive: some local disjunct holds at some cut iff it holds in some local state", SlicePlan{}}
	}
	if _, ok := p.Linear(); ok {
		return Choice{OpEF, KindLinearLeast, "EF linear: Chase–Garg advancement",
			"linear × EF", "O(n|E|) evaluations",
			"linear: satisfying cuts are meet-closed, so the advancement property finds the least one", SlicePlan{}}
	}
	if _, ok := p.PostLinear(); ok {
		return Choice{OpEF, KindPostLinearGreatest, "EF post-linear: dual advancement",
			"post-linear × EF", "O(n|E|) evaluations",
			"post-linear: satisfying cuts are join-closed, so the dual advancement finds the greatest one", SlicePlan{}}
	}
	if _, ok := p.ObserverBody(); ok {
		return Choice{OpEF, KindObserverWalk, "EF observer-independent: single observation",
			"observer-independent × EF", "O(|E|) cuts along one observation",
			"observer-independent: EF ⟺ AF, so one linearization decides", SlicePlan{}}
	}
	if factor, _, ok := sliceFactorOf(p.P); ok {
		return Choice{OpEF, KindSliceFactor, "EF factored: slice-restricted search over the regular factor",
			"arbitrary × EF (regular factor)", "O(|slice| · n) cuts",
			"the conjunctive factor is regular, so its satisfying cuts are exactly the slice sublattice (Mittal–Garg); the search enumerates slice cuts only, evaluating the remainder per cut",
			SlicePlan{Sliced: true, Factor: factor.String(),
				Why: "regular factor: EF(c ∧ r) holds iff some cut of c's slice satisfies r"}}
	}
	return Choice{OpEF, KindExponential, "EF arbitrary: exponential search (NP-complete)",
		"arbitrary × EF", "≤ Π_i(|E_i|+1) cuts, lexical enumeration, O(n²) space",
		"no structure inferred: EF for arbitrary predicates is NP-complete", SlicePlan{}}
}

func chooseAF(p *Pred) Choice {
	if _, ok := p.Stable(); ok {
		return Choice{OpAF, KindStableFinal, "AF stable: evaluate at the final cut",
			"stable × AF", "O(1) cuts",
			"stable: every observation ends at the final cut, so AF(p) ⟺ p at the final cut", SlicePlan{}}
	}
	if _, ok := p.Conjunctive(); ok {
		return Choice{OpAF, KindConjunctiveBoxes, "AF conjunctive: Garg–Waldecker interval boxes",
			"conjunctive × AF", "O(n²m) interval comparisons",
			"conjunctive: AF(p) ⟺ some box of pairwise-overlapping true-intervals (Garg–Waldecker)", SlicePlan{}}
	}
	if _, ok := p.Disjunctive(); ok {
		return Choice{OpAF, KindDisjunctiveDualA1, "AF disjunctive: ¬EG(¬p) via A1",
			"disjunctive × AF", "O(n|E|) evaluations",
			"disjunctive: ¬p is conjunctive hence linear, and AF(p) = ¬EG(¬p) by duality", SlicePlan{}}
	}
	if _, ok := p.ObserverBody(); ok {
		return Choice{OpAF, KindObserverWalk, "AF observer-independent: single observation",
			"observer-independent × AF", "O(|E|) cuts along one observation",
			"observer-independent: AF ⟺ EF, so one linearization decides", SlicePlan{}}
	}
	return Choice{OpAF, KindExponential, "AF arbitrary: exponential search",
		"arbitrary × AF", "≤ Π_i(|E_i|+1) cuts, memoized",
		"no structure inferred: AF(p) = ¬EG(¬p) via the exponential solver", SlicePlan{}}
}

func chooseEG(p *Pred) Choice {
	if _, ok := p.Stable(); ok {
		return Choice{OpEG, KindStableInitial, "EG stable: evaluate at the initial cut",
			"stable × EG", "O(1) cuts",
			"stable: once true p stays true, so EG(p) ⟺ p at the initial cut", SlicePlan{}}
	}
	if _, ok := p.Linear(); ok {
		return Choice{OpEG, KindLinearA1, "EG linear: Algorithm A1",
			"linear × EG", "O(n|E|) evaluations",
			"linear: greedy path construction via the forbidden process (Algorithm A1)", SlicePlan{}}
	}
	if _, ok := p.Disjunctive(); ok {
		return Choice{OpEG, KindDisjunctiveDualBoxes, "EG disjunctive: ¬AF(¬p) via interval boxes",
			"disjunctive × EG", "O(n²m) interval comparisons",
			"disjunctive: ¬p is conjunctive, and EG(p) = ¬AF(¬p) by duality", SlicePlan{}}
	}
	if _, ok := p.PostLinear(); ok {
		return Choice{OpEG, KindPostLinearA1Dual, "EG post-linear: dual Algorithm A1",
			"post-linear × EG", "O(n|E|) evaluations",
			"post-linear: the dual greedy path construction applies", SlicePlan{}}
	}
	return Choice{OpEG, KindExponential, "EG arbitrary: exponential search (NP-complete, Theorem 5)",
		"arbitrary × EG", "≤ Π_i(|E_i|+1) cuts, memoized",
		"Theorem 5: EG is NP-complete already for observer-independent predicates", SlicePlan{}}
}

func chooseAG(p *Pred) Choice {
	if _, ok := p.Stable(); ok {
		return Choice{OpAG, KindStableInitial, "AG stable: evaluate at the initial cut",
			"stable × AG", "O(1) cuts",
			"stable: if p holds initially it holds everywhere above, so AG(p) ⟺ p at the initial cut", SlicePlan{}}
	}
	if _, ok := p.P.(predicate.And); ok {
		return Choice{OpAG, KindSplitAnd, "AG over ∧: split per conjunct",
			"boolean ∧ × AG", "sum over conjuncts",
			"AG distributes over conjunction: AG(a ∧ b) = AG(a) ∧ AG(b)", SlicePlan{}}
	}
	if _, ok := p.Linear(); ok {
		return Choice{OpAG, KindLinearA2, "AG linear: Algorithm A2 (meet-irreducibles)",
			"linear × AG", "O(n|E|) evaluations over ≤|E| meet-irreducibles",
			"linear: by Birkhoff duality it suffices to check the meet-irreducible cuts (Algorithm A2)", SlicePlan{}}
	}
	if _, ok := p.Disjunctive(); ok {
		return Choice{OpAG, KindDisjunctiveDualLeast, "AG disjunctive: ¬EF(¬p) via advancement",
			"disjunctive × AG", "O(n|E|) evaluations",
			"disjunctive: ¬p is conjunctive hence linear, and AG(p) = ¬EF(¬p) by duality", SlicePlan{}}
	}
	if _, ok := p.PostLinear(); ok {
		return Choice{OpAG, KindPostLinearA2Dual, "AG post-linear: dual Algorithm A2 (join-irreducibles)",
			"post-linear × AG", "O(n|E|) evaluations over ≤|E| join-irreducibles",
			"post-linear: the dual Birkhoff argument over join-irreducibles applies", SlicePlan{}}
	}
	if n, ok := p.P.(predicate.Not); ok {
		if factor, _, ok := sliceFactorOf(n.P); ok {
			return Choice{OpAG, KindSliceFactor, "AG factored: ¬EF over the regular factor's slice",
				"arbitrary × AG (regular factor)", "O(|slice| · n) cuts",
				"AG(¬q) = ¬EF(q), and q's conjunctive factor is regular, so EF(q) searches only the factor's slice sublattice (Mittal–Garg)",
				SlicePlan{Sliced: true, Factor: factor.String(),
					Why: "regular factor under ¬: AG(¬(c ∧ r)) = ¬EF(c ∧ r), searched over c's slice"}}
		}
	}
	return Choice{OpAG, KindExponential, "AG arbitrary: exponential search (co-NP-complete, Theorem 6)",
		"arbitrary × AG", "≤ Π_i(|E_i|+1) cuts, lexical enumeration, O(n²) space",
		"Theorem 6: AG is co-NP-complete already for observer-independent predicates", SlicePlan{}}
}

// ChooseUntil dispatches a binary temporal operator (EU or AU) over two
// compiled predicates.
func ChooseUntil(op Op, p, q *Pred) Choice {
	switch op {
	case OpEU:
		return chooseEU(p, q)
	case OpAU:
		return chooseAU(p, q)
	default:
		panic("pir: ChooseUntil called with unary operator " + string(op))
	}
}

func chooseEU(p, q *Pred) Choice {
	if _, okP := p.Conjunctive(); okP {
		if _, okQ := q.Linear(); okQ {
			return Choice{OpEU, KindUntilA3, "EU conjunctive/linear: Algorithm A3",
				"conjunctive U linear × EU", "O(n²|E|) evaluations",
				"Theorem 7: a path to the least cut satisfying q with p below it, via advancement + A1", SlicePlan{}}
		}
		if _, ok := q.P.(predicate.Or); ok {
			return Choice{OpEU, KindUntilSplitOr, "EU target over ∨: split per disjunct",
				"conjunctive U ∨ × EU", "sum over disjuncts",
				"E[p U (a ∨ b)] = E[p U a] ∨ E[p U b]", SlicePlan{}}
		}
		if _, ok := q.P.(predicate.Disjunctive); ok {
			return Choice{OpEU, KindUntilSplitDisj, "EU target over disj: split per local",
				"conjunctive U disjunctive × EU", "sum over locals",
				"a disjunctive target splits into its local disjuncts, each conjunctive hence linear", SlicePlan{}}
		}
	}
	return Choice{OpEU, KindExponential, "EU arbitrary: exponential search",
		"arbitrary × EU", "≤ Π_i(|E_i|+1) cuts, memoized",
		"no structure inferred for the p/q pair", SlicePlan{}}
}

func chooseAU(p, q *Pred) Choice {
	_, okP := p.Disjunctive()
	_, okQ := q.Disjunctive()
	if okP && okQ {
		return Choice{OpAU, KindUntilAUComposition, "AU disjunctive: ¬(EG(¬q) ∨ E[¬q U ¬p∧¬q])",
			"disjunctive U disjunctive × AU", "O(n²|E|) evaluations",
			"Section 7 composition: the complements are conjunctive, detected by A1 and A3", SlicePlan{}}
	}
	return Choice{OpAU, KindExponential, "AU arbitrary: exponential search",
		"arbitrary × AU", "≤ Π_i(|E_i|+1) cuts, memoized",
		"no structure inferred for the p/q pair", SlicePlan{}}
}
