package core

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Table 1's cost column, checked by count rather than by clock: on
// families whose counts are fixed by construction, the polynomial kernels
// do exactly (or at most) the work the paper's bounds allow, and their
// allocations do not grow with |E|.

// costFamily is a random computation of exactly events events on n
// processes.
func costFamily(n, events int) *computation.Computation {
	return sim.Random(sim.DefaultRandomConfig(n, events), 1)
}

// lowered binds a conjunction of one local predicate per process,
// built by local, to comp.
func lowered(comp *computation.Computation, local func(i int) predicate.LocalPredicate) predicate.Linear {
	var locals []predicate.LocalPredicate
	for i := 0; i < comp.N(); i++ {
		locals = append(locals, local(i))
	}
	l, _ := pir.FromPredicate(predicate.Conj(locals...)).Bind(comp).Linear()
	return l
}

// everywhere holds at every cut: sim's values are never negative.
func everywhere(comp *computation.Computation) predicate.Linear {
	return lowered(comp, func(i int) predicate.LocalPredicate {
		return predicate.VarCmp{Proc: i, Var: "x0", Op: predicate.GE, K: 0}
	})
}

// atLeast holds once every process has executed num/den of its events.
func atLeast(comp *computation.Computation, num, den int) predicate.Linear {
	return lowered(comp, func(i int) predicate.LocalPredicate {
		k0 := comp.Len(i) * num / den
		return predicate.LocalFn{Proc: i, Name: fmt.Sprintf("k>=%d", k0), Fn: func(_ *computation.Computation, k int) bool { return k >= k0 }}
	})
}

// onChain holds exactly on the cuts of one maximal chain ∅ ▷ … ▷ E; a
// chain is closed under meets, so the predicate is linear.
func onChain(comp *computation.Computation) predicate.Predicate {
	chain := comp.SomeLinearization()
	return predicate.Fn{Name: "onChain", F: func(_ *computation.Computation, cut computation.Cut) bool {
		return cut.Equal(chain[cut.Size()])
	}}
}

var costShapes = []struct{ n, events int }{
	{2, 1000}, {8, 1000}, {16, 1000}, {2, 10000}, {8, 10000}, {16, 10000},
}

func TestTable1CostColumn(t *testing.T) {
	for _, sh := range costShapes {
		comp := costFamily(sh.n, sh.events)
		e := int64(comp.TotalEvents())
		name := fmt.Sprintf("n=%d |E|=%d", sh.n, e)
		if e != int64(sh.events) {
			t.Fatalf("%s: family has %d events", name, e)
		}

		var st Stats
		if _, ok := agLinear(comp, everywhere(comp), &st); !ok || st.PredicateEvals != e+1 || st.CutsVisited != e+1 {
			t.Errorf("%s: A2 on an invariant: holds %v after %d evaluations at %d cuts, want %d", name, ok, st.PredicateEvals, st.CutsVisited, e+1)
		}

		st = Stats{}
		path, ok := egLinear(comp, onChain(comp), comp.FinalCut(), &st)
		if !ok || int64(len(path)) != e+1 || st.AdvancementSteps != e || st.PredicateEvals > int64(sh.n)*e+1 {
			t.Errorf("%s: A1 along one chain: holds %v, %d steps, %d evaluations; want %d steps and ≤ %d evaluations",
				name, ok, st.AdvancementSteps, st.PredicateEvals, e, int64(sh.n)*e+1)
		}

		for _, q := range []predicate.Linear{predicate.Terminated{}, atLeast(comp, 1, 1)} {
			st = Stats{}
			if cut, ok := leastCut(comp, q, &st); !ok || !cut.Equal(comp.FinalCut()) || st.ForbiddenCalls > e {
				t.Errorf("%s: advancement to %s: %v %v after %d Forbidden calls, want the final cut after ≤ %d", name, q, cut, ok, st.ForbiddenCalls, e)
			}
		}
		initial := lowered(comp, func(i int) predicate.LocalPredicate {
			return predicate.LocalFn{Proc: i, Name: "k==0", Fn: func(_ *computation.Computation, k int) bool { return k == 0 }}
		}).(predicate.PostLinear)
		st = Stats{}
		if cut, ok := greatestCut(comp, initial, &st); !ok || cut.Size() != 0 || st.ForbiddenCalls > e {
			t.Errorf("%s: retreat to ∅: %v %v after %d Retreat calls, want ∅ after ≤ %d", name, cut, ok, st.ForbiddenCalls, e)
		}
	}
}

// TestTable1KernelAllocs requires the kernels' allocations not to grow
// with |E|: the same count at 1k and 10k events. The collector is off while
// counting: the larger runs trigger more cycles, and a cycle's own
// allocations would be charged to the kernel.
func TestTable1KernelAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{2, 8, 16} {
		kernels := map[string]func(comp *computation.Computation) func(){
			"A1": func(comp *computation.Computation) func() {
				p, top := everywhere(comp), comp.FinalCut()
				return func() { egLinear(comp, p, top, nil) }
			},
			"A2": func(comp *computation.Computation) func() {
				p := everywhere(comp)
				return func() { agLinear(comp, p, nil) }
			},
			"advancement": func(comp *computation.Computation) func() {
				return func() { leastCut(comp, predicate.Terminated{}, nil) }
			},
		}
		small, large := costFamily(n, 1000), costFamily(n, 10000)
		for name, kernel := range kernels {
			a, b := testing.AllocsPerRun(3, kernel(small)), testing.AllocsPerRun(3, kernel(large))
			if a != b {
				t.Errorf("n=%d %s: %v allocations at 1k events, %v at 10k", n, name, a, b)
			}
		}
	}
}

// BenchmarkTable1Kernels reads A1, A2 and A3 on a 100k-event computation,
// per event of the computation.
func BenchmarkTable1Kernels(b *testing.B) {
	for _, n := range []int{4, 16} {
		comp := costFamily(n, 100000)
		p, q, top := everywhere(comp), atLeast(comp, 1, 2), comp.FinalCut()
		kernels := []struct {
			name string
			run  func() bool
		}{
			{"A1", func() bool { _, ok := egLinear(comp, p, top, nil); return ok }},
			{"A2", func() bool { _, ok := agLinear(comp, p, nil); return ok }},
			{"A3", func() bool { _, ok := euConjLinear(comp, p, q, nil); return ok }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !k.run() {
						b.Fatal("the kernel's predicate holds, yet it reported false")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*comp.TotalEvents()), "ns/event")
			})
		}
	}
}
