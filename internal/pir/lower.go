package pir

import (
	"fmt"

	"repro/internal/computation"
	"repro/internal/predicate"
)

// lowering is the per-computation compiled evaluator attached by Bind.
type lowering struct {
	conj    *LoweredConj        // conjunctive view, when lowerable
	negConj *LoweredConj        // complement of the disjunctive view
	factor  *LoweredConj        // regular slice factor of a mixed And / Not(And)
	rest    predicate.Predicate // factor's remainder, lowered when disjunctive
	stats   LowerStats
}

// LowerStats reports what Bind compiled, for -explain and the compile
// experiment.
type LowerStats struct {
	// Lowered is whether any bitset evaluator was built.
	Lowered bool
	// Conjuncts is how many local predicates were lowered (the complement
	// of a disjunctive view counts its disjuncts).
	Conjuncts int
	// Procs is the number of distinct processes the bitsets cover.
	Procs int
	// StateBits is the total number of local states materialized as bits.
	StateBits int
	// Words is the number of 64-bit words allocated.
	Words int
	// Interned is how many conjuncts reused a previously built bitset.
	Interned int
}

// Bind compiles the predicate's bitset evaluators for comp and returns
// the same Pred. Each local conjunct/disjunct is evaluated once per local
// state into a bitset (bit k = holds in state k), so subsequent cut
// evaluation is one word test per process instead of an AST walk per
// conjunct. Identical conjuncts (same process, same rendering, comparable
// type) share an interned bitset.
//
// The bitsets index local states of comp; they remain valid on prefixes
// of comp (which share its value columns) but must not be used on any
// other computation. Bind is idempotent and must be called before the
// Pred is shared across goroutines; the lowered evaluators themselves are
// read-only and safe for concurrent use.
func (pr *Pred) Bind(comp *computation.Computation) *Pred {
	if pr.low != nil {
		return pr
	}
	low := &lowering{}
	if c, ok := conjunctiveView(pr.P); ok && len(c.Locals) > 0 {
		low.conj = lowerConj(comp, c, &low.stats)
	}
	if d, ok := disjunctiveView(pr.P); ok && len(d.Locals) > 0 {
		low.negConj = lowerConj(comp, d.Negate(), &low.stats)
	}
	// Lower the regular slice factor of a mixed formula (conjunctive ∧
	// arbitrary, possibly under one Not) so the slice-first EF/AG dispatch
	// gets word-test evaluation for slice construction and restriction. A
	// predicate is at most one of {And, Not}, so one slot suffices; when
	// the whole predicate is conjunctive, low.conj already covers it.
	if low.conj == nil {
		inner := pr.P
		if n, ok := inner.(predicate.Not); ok {
			inner = n.P
		}
		if _, viewable := conjunctiveView(inner); !viewable {
			if factor, rest, ok := sliceFactorOf(inner); ok && len(factor.Locals) > 0 {
				low.factor, low.rest = lowerConj(comp, factor, &low.stats), rest
				// The remainder is never conjunctive (every conjunctive
				// part merged into the factor); a disjunctive one lowers
				// to the complement of its negation's bitsets.
				if d, ok := disjunctiveView(rest); ok && len(d.Locals) > 0 {
					low.rest = &loweredDisj{src: d, neg: lowerConj(comp, d.Negate(), &low.stats)}
				}
			}
		}
	}
	pr.low = low
	return pr
}

// Lowering reports the bitset-compilation stats (zero value before Bind).
func (pr *Pred) Lowering() LowerStats {
	if pr.low == nil {
		return LowerStats{}
	}
	return pr.low.stats
}

// LoweredConj is the bitset lowering of a conjunctive predicate: one
// bitset per conjunct over the local states of its process, plus one
// AND-combined bitset per distinct process for evaluation. Eval is a word
// test per process; Forbidden/Retreat scan the conjuncts in declaration
// order so the advancement algorithms make exactly the same process
// choices as the structural predicate.Conjunctive they replace.
type LoweredConj struct {
	src    predicate.Conjunctive
	locals []loweredLocal // in Locals order, for order-exact Forbidden/Retreat
	procs  []procWords    // distinct processes, first-appearance order
}

type loweredLocal struct {
	proc int
	bits []uint64
}

type procWords struct {
	proc int
	bits []uint64
}

var (
	_ predicate.Linear     = (*LoweredConj)(nil)
	_ predicate.PostLinear = (*LoweredConj)(nil)
)

// Eval implements Predicate with one word test per distinct process.
func (p *LoweredConj) Eval(c *computation.Computation, cut computation.Cut) bool {
	for i := range p.procs {
		k := cut[p.procs[i].proc]
		if p.procs[i].bits[k>>6]&(1<<(uint(k)&63)) == 0 {
			return false
		}
	}
	return true
}

// Forbidden implements Linear: the first failing conjunct in declaration
// order, matching predicate.Conjunctive.Forbidden bit for bit.
func (p *LoweredConj) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	for i := range p.locals {
		k := cut[p.locals[i].proc]
		if p.locals[i].bits[k>>6]&(1<<(uint(k)&63)) == 0 {
			return p.locals[i].proc, true
		}
	}
	panic("pir: Forbidden called on satisfied conjunctive predicate")
}

// Retreat implements PostLinear with the same declaration-order scan.
func (p *LoweredConj) Retreat(c *computation.Computation, cut computation.Cut) (int, bool) {
	for i := range p.locals {
		k := cut[p.locals[i].proc]
		if p.locals[i].bits[k>>6]&(1<<(uint(k)&63)) == 0 {
			return p.locals[i].proc, true
		}
	}
	panic("pir: Retreat called on satisfied conjunctive predicate")
}

// String implements Predicate by rendering the source predicate, so
// algorithm output and diagnostics are unchanged by the lowering.
func (p *LoweredConj) String() string { return p.src.String() }

// loweredDisj evaluates a disjunction of local predicates as the
// complement of its negation's conjunctive bitsets.
type loweredDisj struct {
	src predicate.Disjunctive
	neg *LoweredConj
}

func (p *loweredDisj) Eval(c *computation.Computation, cut computation.Cut) bool {
	return !p.neg.Eval(c, cut)
}

func (p *loweredDisj) String() string { return p.src.String() }

// internKey returns a stable identity for a local predicate when one
// exists. Only value types whose String fully determines their semantics
// are internable; LocalFn holds a closure (uncomparable, and its name
// need not identify the function), so it is always rebuilt.
func internKey(l predicate.LocalPredicate) (string, bool) {
	switch q := l.(type) {
	case predicate.VarCmp:
		return fmt.Sprintf("%d|%s", q.Process(), q.String()), true
	case predicate.NotLocal:
		if _, ok := q.P.(predicate.VarCmp); ok {
			return fmt.Sprintf("%d|%s", q.Process(), q.String()), true
		}
	}
	return "", false
}

// lowerConj materializes the bitsets for one conjunctive predicate.
func lowerConj(comp *computation.Computation, c predicate.Conjunctive, st *LowerStats) *LoweredConj {
	lc := &LoweredConj{src: c}
	intern := map[string][]uint64{}
	combined := map[int][]uint64{}
	merged := map[int]bool{} // proc's combined slice is a private copy
	var order []int
	for _, l := range c.Locals {
		proc := l.Process()
		n := comp.Len(proc) + 1 // local states 0..Len (state k = after k events)
		words := (n + 63) / 64
		var bits []uint64
		key, internable := internKey(l)
		if internable {
			if b, ok := intern[key]; ok {
				bits = b
				st.Interned++
			}
		}
		if bits == nil {
			bits = make([]uint64, words)
			fillBits(comp, l, bits, n)
			if internable {
				intern[key] = bits
			}
			st.StateBits += n
			st.Words += words
		}
		lc.locals = append(lc.locals, loweredLocal{proc: proc, bits: bits})
		st.Conjuncts++
		prev, seen := combined[proc]
		switch {
		case !seen:
			combined[proc] = bits
			order = append(order, proc)
		case !merged[proc]:
			// Second conjunct on this process: AND into a private copy so
			// interned and per-local slices stay pristine.
			dst := make([]uint64, len(prev))
			for i := range prev {
				dst[i] = prev[i] & bits[i]
			}
			combined[proc] = dst
			merged[proc] = true
		default:
			for i := range prev {
				prev[i] &= bits[i]
			}
		}
	}
	for _, proc := range order {
		lc.procs = append(lc.procs, procWords{proc: proc, bits: combined[proc]})
	}
	st.Lowered = true
	if len(order) > st.Procs {
		st.Procs = len(order)
	}
	return lc
}

// fillBits sets bit k of bits for each local state k < n of l's process
// where l holds. A comparison, bare or negated, reads its value column once
// (an undefined variable reads 0, as Computation.Value does); any other
// local predicate is asked state by state.
func fillBits(comp *computation.Computation, l predicate.LocalPredicate, bits []uint64, n int) {
	cmp, negated, ok := comparison(l)
	if !ok {
		for k := 0; k < n; k++ {
			if l.HoldsAt(comp, k) {
				bits[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		return
	}
	col, _ := comp.Column(cmp.Proc, cmp.Var)
	for k := 0; k < n; k++ {
		v := 0
		if col != nil {
			v = col[k]
		}
		if cmp.Op.Holds(v, cmp.K) != negated {
			bits[k>>6] |= 1 << (uint(k) & 63)
		}
	}
}

// comparison returns l as a variable comparison, possibly negated.
func comparison(l predicate.LocalPredicate) (c predicate.VarCmp, negated, ok bool) {
	switch q := l.(type) {
	case predicate.VarCmp:
		return q, false, true
	case predicate.NotLocal:
		c, ok = q.P.(predicate.VarCmp)
		return c, true, ok
	}
	return c, false, false
}

// Restrict returns a copy of the evaluator whose per-process bitsets are
// additionally ANDed with masks (masks[i] over local states of process i;
// nil = no restriction). This is the slice-restricted evaluation mode: the
// caller sets bit k of masks[i] exactly when local state k survives in the
// predicate's slice, so the restricted evaluator rejects any cut that
// strays outside the slice sublattice in one word test per process —
// without touching the slice's cut tables on the hot path. The conjunct
// list (and hence Forbidden/Retreat order) is unchanged; only Eval's
// combined per-process words narrow.
func (p *LoweredConj) Restrict(masks [][]uint64) *LoweredConj {
	out := &LoweredConj{src: p.src, locals: p.locals}
	out.procs = make([]procWords, len(p.procs))
	total := 0
	for _, pw := range p.procs {
		total += len(pw.bits)
	}
	words := make([]uint64, total) // one backing for every restricted bitset
	for i, pw := range p.procs {
		m := masks[pw.proc]
		if m == nil {
			out.procs[i] = pw
			continue
		}
		bits := words[:len(pw.bits)]
		words = words[len(pw.bits):]
		for w := range pw.bits {
			bits[w] = pw.bits[w]
			if w < len(m) {
				bits[w] &= m[w]
			}
		}
		out.procs[i] = procWords{proc: pw.proc, bits: bits}
	}
	return out
}
