package slice_test

import (
	"fmt"
	"testing"

	"repro/internal/predicate"
	"repro/internal/sim"
	"repro/internal/slice"
)

func TestIncrementalMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(4, 18), seed)
		preds := regularBattery(comp)
		preds = append(preds, predicate.AndLinear{Ps: []predicate.Linear{
			predicate.ChannelsEmpty{},
			predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 2}),
		}})
		for _, p := range preds {
			naive := slice.NewNaive(comp, p)
			inc := slice.NewIncremental(comp, p)
			if naive.Satisfiable() != inc.Satisfiable() {
				t.Fatalf("seed %d %s: satisfiable %v vs %v", seed, p, naive.Satisfiable(), inc.Satisfiable())
			}
			if !naive.Satisfiable() {
				continue
			}
			a, _ := naive.Least()
			b, _ := inc.Least()
			if !a.Equal(b) {
				t.Fatalf("seed %d %s: I_p %v vs %v", seed, p, a, b)
			}
			for i := 0; i < comp.N(); i++ {
				for k := 1; k <= comp.Len(i); k++ {
					ja, oka := naive.J(i, k)
					jb, okb := inc.J(i, k)
					if oka != okb || (oka && !ja.Equal(jb)) {
						t.Fatalf("seed %d %s: J(%d,%d) = %v/%v vs %v/%v",
							seed, p, i, k, ja, oka, jb, okb)
					}
				}
			}
		}
	}
}

// TestJMonotoneAlongProcess pins the property NewIncremental exploits:
// J_p(e(i,k)) ⊆ J_p(e(i,k+1)) for any linear predicate.
func TestJMonotoneAlongProcess(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 14), seed)
		for _, p := range regularBattery(comp) {
			s := slice.NewNaive(comp, p)
			for i := 0; i < comp.N(); i++ {
				var prev []int
				for k := 1; k <= comp.Len(i); k++ {
					j, ok := s.J(i, k)
					if !ok {
						// Once missing, later J must be missing too.
						for k2 := k + 1; k2 <= comp.Len(i); k2++ {
							if _, ok2 := s.J(i, k2); ok2 {
								t.Fatalf("seed %d %s: J(%d,%d) missing but J(%d,%d) exists",
									seed, p, i, k, i, k2)
							}
						}
						break
					}
					if prev != nil {
						for proc, v := range prev {
							if v > j[proc] {
								t.Fatalf("seed %d %s: J(%d,%d)=%v not above J(%d,%d)=%v",
									seed, p, i, k, j, i, k-1, prev)
							}
						}
					}
					prev = j
				}
			}
		}
	}
}

func TestIncrementalUnsatisfiable(t *testing.T) {
	comp := sim.Fig2()
	never := predicate.Conj(predicate.VarCmp{Proc: 0, Var: "nope", Op: predicate.GE, K: 1})
	s := slice.NewIncremental(comp, never)
	if s.Satisfiable() {
		t.Fatal("unsatisfiable predicate reported satisfiable")
	}
}

func BenchmarkSliceConstruction(b *testing.B) {
	for _, events := range []int{100, 400, 1600} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 7)
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 2},
			predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.LE, K: 2},
		)
		b.Run(fmt.Sprintf("Naive/E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				slice.NewNaive(comp, p)
			}
		})
		b.Run(fmt.Sprintf("Incremental/E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				slice.NewIncremental(comp, p)
			}
		})
	}
}
