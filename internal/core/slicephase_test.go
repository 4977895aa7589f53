package core

import (
	"runtime"
	"testing"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/slice"
)

// edgeShape is the offline-sliced workload's shape on a sim computation:
// a factor that leaves every process its last keep events, lowered as
// detection lowers it, and a disjunctive remainder that never holds, so
// the search visits the whole slice.
func edgeShape(n, events, keep int, seed int64) (*computation.Computation, predicate.Linear, predicate.Predicate) {
	comp := sim.Random(sim.DefaultRandomConfig(n, events), seed)
	var top []predicate.LocalPredicate
	for i := 0; i < n; i++ {
		lo := max(comp.Len(i)-keep, 0)
		top = append(top, predicate.LocalFn{Proc: i, Name: "late", Fn: func(_ *computation.Computation, k int) bool { return k >= lo }})
	}
	never := predicate.Disjunctive{Locals: []predicate.LocalPredicate{
		predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LT, K: 0},
		predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.LT, K: 0},
	}}
	pr := pir.FromPredicate(predicate.And{Ps: []predicate.Predicate{predicate.Conjunctive{Locals: top}, never}}).Bind(comp)
	factor, rest, _ := pr.SliceFactor()
	return comp, factor, rest
}

// TestSearchSliceAllocs bounds the slice search's allocations: its setup
// (the guard, the index's doublings, the stack's growth) is a few dozen
// allocations, and a visited cut costs none.
func TestSearchSliceAllocs(t *testing.T) {
	comp, factor, rest := edgeShape(8, 96, 2, 0)
	sl := slice.NewIncremental(comp, factor)
	var st Stats
	if searchSlice(comp, sl, factor, rest, &st) {
		t.Fatal("the remainder never holds, yet the search found it")
	}
	if st.SliceCutsEnumerated < 2000 {
		t.Fatalf("slice of %d cuts; the bound needs a few thousand", st.SliceCutsEnumerated)
	}
	allocs := testing.AllocsPerRun(5, func() { searchSlice(comp, sl, factor, rest, nil) })
	if per := allocs / float64(st.SliceCutsEnumerated); per >= 0.01 {
		t.Fatalf("%.0f allocations over %d cuts: %.4f per cut, want < 0.01", allocs, st.SliceCutsEnumerated, per)
	}
}

// BenchmarkSearchSlice is the offline-sliced workload's slice search
// (n=8, 96 events, keep=2, a remainder that never holds) over four sim
// computations, reported per visited cut.
func BenchmarkSearchSlice(b *testing.B) {
	type input struct {
		comp   *computation.Computation
		sl     *slice.Slice
		factor predicate.Linear
		rest   predicate.Predicate
	}
	var ins []input
	cuts := 0
	for seed := int64(0); seed < 4; seed++ {
		comp, factor, rest := edgeShape(8, 96, 2, seed)
		sl := slice.NewIncremental(comp, factor)
		var st Stats
		searchSlice(comp, sl, factor, rest, &st)
		cuts += int(st.SliceCutsEnumerated)
		ins = append(ins, input{comp, sl, factor, rest})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			searchSlice(in.comp, in.sl, in.factor, in.rest, nil)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	visited := float64(b.N) * float64(cuts)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/visited, "ns/cut")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/visited, "allocs/cut")
}
