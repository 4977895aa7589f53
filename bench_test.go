package repro

// Benchmarks regenerating the paper's tables and figures. One benchmark
// family per artifact:
//
//	BenchmarkTable1*     — Table 1, the polynomial cells
//	BenchmarkA1*, A2*    — Fig. 1 (EG/AG for linear predicates), scaling
//	BenchmarkFig2*       — Fig. 2 (meet-irreducible computation)
//	BenchmarkHardness*   — Fig. 3 (Theorems 5 & 6 reductions)
//	BenchmarkA3*, AU*    — Figs. 4 & 5 (until operators)
//	BenchmarkScaling*    — §5/§7 complexity claims vs the lattice baseline
//	BenchmarkAblation*   — DESIGN.md ablations
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/explore"
	"repro/internal/lattice"
	"repro/internal/predicate"
	"repro/internal/sat"
	"repro/internal/sim"
)

func benchConj() predicate.Conjunctive {
	return predicate.Conj(
		predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 3},
		predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.LE, K: 3},
	)
}

func benchLinear() predicate.Linear {
	return predicate.AndLinear{Ps: []predicate.Linear{benchConj(), predicate.ChannelsEmpty{}}}
}

var benchComp = sim.Random(sim.DefaultRandomConfig(4, 2000), 5)

// --- Table 1 -------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	cells := []struct {
		name string
		f    ctl.Formula
	}{
		{"Conjunctive/EF", ctl.EF{F: ctl.Atom{P: benchConj()}}},
		{"Conjunctive/AF", ctl.AF{F: ctl.Atom{P: benchConj()}}},
		{"Conjunctive/EG", ctl.EG{F: ctl.Atom{P: benchConj()}}},
		{"Conjunctive/AG", ctl.AG{F: ctl.Atom{P: benchConj()}}},
		{"Disjunctive/EF", ctl.EF{F: ctl.Atom{P: benchConj().Negate()}}},
		{"Disjunctive/AF", ctl.AF{F: ctl.Atom{P: benchConj().Negate()}}},
		{"Disjunctive/EG", ctl.EG{F: ctl.Atom{P: benchConj().Negate()}}},
		{"Disjunctive/AG", ctl.AG{F: ctl.Atom{P: benchConj().Negate()}}},
		{"Stable/EF", ctl.EF{F: ctl.Atom{P: predicate.Stable{P: predicate.Received{ID: 1}}}}},
		{"Stable/AF", ctl.AF{F: ctl.Atom{P: predicate.Stable{P: predicate.Received{ID: 1}}}}},
		{"Stable/EG", ctl.EG{F: ctl.Atom{P: predicate.Stable{P: predicate.Received{ID: 1}}}}},
		{"Stable/AG", ctl.AG{F: ctl.Atom{P: predicate.Stable{P: predicate.Received{ID: 1}}}}},
		{"Linear/EF", ctl.EF{F: ctl.Atom{P: benchLinear()}}},
		{"Linear/EG", ctl.EG{F: ctl.Atom{P: benchLinear()}}},
		{"Linear/AG", ctl.AG{F: ctl.Atom{P: benchLinear()}}},
		{"Regular/EG", ctl.EG{F: ctl.Atom{P: predicate.ChannelsEmpty{}}}},
		{"Regular/AG", ctl.AG{F: ctl.Atom{P: predicate.ChannelsEmpty{}}}},
		{"ObserverIndep/EF", ctl.EF{F: ctl.Atom{P: predicate.ObserverIndependent{P: benchConj().Negate()}}}},
		{"ObserverIndep/AF", ctl.AF{F: ctl.Atom{P: predicate.ObserverIndependent{P: benchConj().Negate()}}}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Detect(benchComp, c.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 1: Algorithms A1 and A2 ---------------------------------------

// The Fig. 1 and Fig. 5 benchmarks use predicates that hold along the whole
// computation, so the algorithms walk it end to end instead of exiting at
// the first failing cut, and the work grows with |E|. benchConj holds at
// every cut: sim's values lie in [0, ValRange) = [0, 4).

func BenchmarkA1EGLinear(b *testing.B) {
	run := func(name string, comp *computation.Computation) {
		p := benchConj()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := core.EGLinear(comp, p); !ok {
					b.Fatal("the predicate holds at every cut, yet A1 reported false")
				}
			}
		})
	}
	for _, events := range []int{500, 2000, 8000} {
		run(fmt.Sprintf("E%d", events), sim.Random(sim.DefaultRandomConfig(4, events), 11))
	}
	for _, n := range []int{2, 8, 32} {
		run(fmt.Sprintf("N%d", n), sim.Random(sim.DefaultRandomConfig(n, 4000), 11))
	}
}

func BenchmarkA2AGLinear(b *testing.B) {
	for _, events := range []int{500, 2000, 8000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 11)
		p := benchConj()
		b.Run(fmt.Sprintf("E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := core.AGLinear(comp, p); !ok {
					b.Fatal("the predicate holds at every cut, yet A2 reported false")
				}
			}
		})
	}
}

// --- Fig. 2: meet-irreducibles -------------------------------------------

func BenchmarkFig2MeetIrreducibles(b *testing.B) {
	comp := sim.Fig2()
	b.Run("BirkhoffFormula", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MeetIrreducibles(comp)
		}
	})
	b.Run("LatticeDegrees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := lattice.MustBuild(comp)
			l.MeetIrreducibles()
		}
	})
}

// --- Fig. 3: hardness -----------------------------------------------------

func BenchmarkHardnessEGSat(b *testing.B) {
	for _, m := range []int{8, 12, 16} {
		// Unsatisfiable implication chain: the detector must exhaust the
		// reachable cut space (3·2^m cuts).
		cnf := sat.CNF{Vars: m, Clauses: [][]int{{1}}}
		for i := 1; i < m; i++ {
			cnf.Clauses = append(cnf.Clauses, []int{-i, i + 1})
		}
		cnf.Clauses = append(cnf.Clauses, []int{-m})
		comp, p := sat.ReduceSAT(cnf)
		b.Run(fmt.Sprintf("vars%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if core.EGArbitrary(comp, p) {
					b.Fatal("unsat formula detected as EG-true")
				}
			}
		})
	}
}

func BenchmarkHardnessAGTaut(b *testing.B) {
	for _, m := range []int{8, 12, 16} {
		cnf := sat.RandomCNF(m, 4, 3, int64(m))
		f := sat.OrF{cnf, sat.NotF{F: cnf}}
		comp, p := sat.ReduceTautology(f)
		b.Run(fmt.Sprintf("vars%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.AGArbitrary(comp, p) {
					b.Fatal("tautology detected as AG-false")
				}
			}
		})
	}
}

// --- Figs. 4 & 5: until ---------------------------------------------------

func BenchmarkA3EU(b *testing.B) {
	b.Run("Fig4", func(b *testing.B) {
		comp := sim.Fig4()
		p := predicate.Conj(
			predicate.VarCmp{Proc: 2, Var: "z", Op: predicate.LT, K: 6},
			predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.LT, K: 4},
		)
		q := predicate.AndLinear{Ps: []predicate.Linear{
			predicate.ChannelsEmpty{},
			predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.GT, K: 1}),
		}}
		for i := 0; i < b.N; i++ {
			if _, ok := core.EUConjLinear(comp, p, q); !ok {
				b.Fatal("Fig4 EU must hold")
			}
		}
	})
	for _, events := range []int{500, 2000, 8000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 13)
		// p holds at every cut, and I_q, the least cut where every process
		// has executed half its events, lies mid-computation: A3 advances
		// to it and runs A1 below it.
		p := predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 3})
		var half []predicate.LocalPredicate
		for i := 0; i < comp.N(); i++ {
			k0 := comp.Len(i) / 2
			half = append(half, predicate.LocalFn{Proc: i, Name: fmt.Sprintf("k>=%d", k0), Fn: func(_ *computation.Computation, k int) bool { return k >= k0 }})
		}
		q := predicate.Conj(half...)
		b.Run(fmt.Sprintf("E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := core.EUConjLinear(comp, p, q); !ok {
					b.Fatal("p holds at every cut, yet A3 reported false")
				}
			}
		})
	}
}

func BenchmarkAUDisjunctive(b *testing.B) {
	for _, events := range []int{500, 2000, 8000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 13)
		// q holds at no cut, so ¬q holds at every cut: the EG(¬q) leg of
		// the composition walks the whole computation and AU is false.
		p := predicate.Disj(predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.GT, K: 3})
		q := predicate.Disj(predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.GT, K: 3})
		b.Run(fmt.Sprintf("E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if core.AUDisjunctive(comp, p, q) {
					b.Fatal("¬q holds at every cut, yet AU reported true")
				}
			}
		})
	}
}

// --- §5/§7 complexity: structural vs lattice baseline ---------------------

func BenchmarkScalingStructuralVsLattice(b *testing.B) {
	for _, n := range []int{3, 5, 6} {
		comp := sim.Grid(n, 8)
		var locals []predicate.LocalPredicate
		for p := 0; p < n; p++ {
			locals = append(locals, predicate.VarCmp{Proc: p, Var: "c", Op: predicate.LE, K: 8})
		}
		p := predicate.Conjunctive{Locals: locals}
		b.Run(fmt.Sprintf("A1/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EGLinear(comp, p)
			}
		})
		b.Run(fmt.Sprintf("LatticeEG/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := lattice.MustBuild(comp)
				explore.Holds(l, ctl.EG{F: ctl.Atom{P: p}})
			}
		})
	}
}

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationLeastCutVsLattice(b *testing.B) {
	comp := sim.Random(sim.DefaultRandomConfig(4, 16), 19)
	p := benchConj()
	b.Run("Advancement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.LeastCut(comp, p)
		}
	})
	b.Run("LatticeLeastSat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := lattice.MustBuild(comp)
			l.LeastSat(p)
		}
	})
}

// --- Facade-level end-to-end ------------------------------------------------

func BenchmarkDetectParsedFormula(b *testing.B) {
	comp := TokenRingMutex(4, 3)
	f := MustParseFormula("AG(disj(crit@P1 != 1, crit@P2 != 1))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(comp, f); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkCut computation.Cut

func BenchmarkSimWorkloads(b *testing.B) {
	b.Run("TokenRingMutex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkCut = TokenRingMutex(4, 2).FinalCut()
		}
	})
	b.Run("Random2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkCut = sim.Random(sim.DefaultRandomConfig(4, 2000), int64(i)).FinalCut()
		}
	})
}
