package pir

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/predicate"
)

// TestBindBitsMatchHoldsAt compares every lowered bitset with HoldsAt, state
// by state: comparisons read a value column once, so the test covers each
// operator bare and negated, an undefined variable, a process without
// events, a LocalFn, and state counts on either side of a word boundary.
func TestBindBitsMatchHoldsAt(t *testing.T) {
	lens := []int{62, 63, 64, 0} // 63, 64, 65 and 1 local states
	b := computation.NewBuilder(len(lens))
	for i, n := range lens {
		b.SetInitial(i, "x", i)
		for k := 1; k <= n; k++ {
			e := b.Internal(i)
			if k%3 != 0 {
				computation.Set(e, "x", (k*7+i)%5)
			}
		}
	}
	comp := b.MustBuild()
	var locals []predicate.LocalPredicate
	for i := range lens {
		for _, op := range []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.NE, predicate.GE, predicate.GT} {
			for _, v := range []string{"x", "undefined"} {
				c := predicate.VarCmp{Proc: i, Var: v, Op: op, K: 2}
				locals = append(locals, c, predicate.NotLocal{P: c})
			}
		}
		locals = append(locals,
			predicate.LocalFn{Proc: i, Name: "odd", Fn: func(_ *computation.Computation, k int) bool { return k%2 == 1 }},
			predicate.NotLocal{P: predicate.LocalFn{Proc: i, Name: "zero", Fn: func(_ *computation.Computation, k int) bool { return k == 0 }}})
	}
	var st LowerStats
	lc := lowerConj(comp, predicate.Conj(locals...), &st)
	if len(lc.locals) != len(locals) {
		t.Fatalf("%d lowered locals, want %d", len(lc.locals), len(locals))
	}
	for li, l := range locals {
		bits := lc.locals[li].bits
		n := comp.Len(l.Process()) + 1
		if len(bits) != (n+63)/64 {
			t.Fatalf("%s: %d words for %d states", l, len(bits), n)
		}
		for k := 0; k < 64*len(bits); k++ {
			got := bits[k>>6]&(1<<(uint(k)&63)) != 0
			if want := k < n && l.HoldsAt(comp, k); got != want {
				t.Fatalf("%s: bit %d = %v, HoldsAt %v", l, k, got, want)
			}
		}
	}
}
