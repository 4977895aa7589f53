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

// TestSearchSliceAllocs pins the slice search's allocations at n=8 to six
// (one for the walk's cut and prefix-join table, five for the guard), the
// same on a slice of 144 cuts and on one of 3 969: a visited cut costs
// none.
func TestSearchSliceAllocs(t *testing.T) {
	for _, keep := range []int{1, 2} {
		comp, factor, rest := edgeShape(8, 96, keep, 0)
		sl := slice.NewIncremental(comp, factor)
		var st Stats
		if _, ok := searchSlice(comp, sl, factor, rest, &st); ok {
			t.Fatal("the remainder never holds, yet the search found it")
		}
		allocs := testing.AllocsPerRun(5, func() { searchSlice(comp, sl, factor, rest, nil) })
		t.Logf("keep=%d: %d cuts, %.0f allocations", keep, st.SliceCutsEnumerated, allocs)
		if allocs != 6 {
			t.Fatalf("keep=%d: %.0f allocations over %d cuts, want 6", keep, allocs, st.SliceCutsEnumerated)
		}
	}
}

// efArbitraryShape is a sim computation (n=4) with a predicate that never
// holds, so efArbitrary visits every consistent cut.
func efArbitraryShape(events int) (*computation.Computation, predicate.Predicate) {
	return sim.Random(sim.DefaultRandomConfig(4, events), 0), predicate.False
}

// TestEFArbitraryAllocs pins efArbitrary's allocations the same way: two
// (the initial cut, and the walk's cut and prefix-join table) on a lattice
// of hundreds of cuts and on one of thousands.
func TestEFArbitraryAllocs(t *testing.T) {
	for _, events := range []int{16, 60} {
		comp, p := efArbitraryShape(events)
		var st Stats
		efArbitrary(comp, p, &st)
		allocs := testing.AllocsPerRun(5, func() { efArbitrary(comp, p, nil) })
		t.Logf("%d events: %d cuts, %.0f allocations", events, st.CutsVisited, allocs)
		if allocs != 2 {
			t.Fatalf("%d events: %.0f allocations over %d cuts, want 2", events, allocs, st.CutsVisited)
		}
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

// BenchmarkEFArbitrary is efArbitrary over the whole lattice of a sim
// computation (n=4, 60 events, p false), reported per visited cut.
func BenchmarkEFArbitrary(b *testing.B) {
	comp, p := efArbitraryShape(60)
	var st Stats
	efArbitrary(comp, p, &st)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		efArbitrary(comp, p, nil)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	visited := float64(b.N) * float64(st.CutsVisited)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/visited, "ns/cut")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/visited, "allocs/cut")
}
