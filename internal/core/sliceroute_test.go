package core

import (
	"math/rand"
	"testing"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// This file is the slice-routing property test: random regular-class
// formulas (a conjunctive factor ∧ an arbitrary remainder, under EF or
// negated under AG) must route through KindSliceFactor, and the sliced
// verdict, evidence, and determining prefix must be bit-identical to the
// unsliced exponential solver, and the verdict to brute-force lattice
// enumeration.

// randomSliceConj builds a random conjunctive factor over comp's variables.
func randomSliceConj(rng *rand.Rand, comp *computation.Computation) predicate.Conjunctive {
	var locals []predicate.LocalPredicate
	for n := 1 + rng.Intn(2); n > 0; n-- {
		proc := rng.Intn(comp.N())
		vars := comp.Vars(proc)
		if len(vars) == 0 {
			continue
		}
		ops := []predicate.Op{predicate.LT, predicate.LE, predicate.NE, predicate.GE}
		locals = append(locals, predicate.VarCmp{
			Proc: proc,
			Var:  vars[rng.Intn(len(vars))],
			Op:   ops[rng.Intn(len(ops))],
			K:    rng.Intn(3),
		})
	}
	if len(locals) == 0 {
		locals = append(locals, predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.GE, K: 0})
	}
	return predicate.Conjunctive{Locals: locals}
}

// randomSliceRemainder builds a genuinely arbitrary (non-monotone,
// class-free) remainder: the XOR of two cut-coordinate threshold tests.
func randomSliceRemainder(rng *rand.Rand, comp *computation.Computation) predicate.Predicate {
	i, j := rng.Intn(comp.N()), rng.Intn(comp.N())
	ki, kj := rng.Intn(comp.Len(i)+1), rng.Intn(comp.Len(j)+1)
	return predicate.Fn{Name: "xorDepth", F: func(_ *computation.Computation, cut computation.Cut) bool {
		return (cut[i] >= ki) != (cut[j] >= kj)
	}}
}

// linearization returns a chain of cuts ∅ = c_0 < c_1 < … < c_|E| = E,
// one event at a time, for prefix-by-prefix determining-prefix checks.
func linearization(comp *computation.Computation) []computation.Cut {
	cur := comp.InitialCut()
	chain := []computation.Cut{cur.Copy()}
	for e := 0; e < comp.TotalEvents(); e++ {
		for i := range cur {
			if comp.EnabledEvent(cur, i) {
				cur[i]++
				chain = append(chain, cur.Copy())
				break
			}
		}
	}
	return chain
}

func TestSliceRoutedDetectMatchesUnsliced(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	routed := 0
	for trial := 0; trial < 160; trial++ {
		cfg := sim.RandomConfig{
			Procs:    2 + rng.Intn(2),
			Events:   6 + rng.Intn(4),
			SendProb: rng.Float64() * 0.5,
			RecvProb: 0.6,
			Vars:     1 + rng.Intn(2),
			ValRange: 3,
		}
		comp := sim.Random(cfg, rng.Int63())
		whole := predicate.And{Ps: []predicate.Predicate{
			randomSliceConj(rng, comp),
			randomSliceRemainder(rng, comp),
		}}
		useEF := trial%2 == 0

		// Routing: the compiled predicate must land in the slice-factor
		// cell with an affirmative, machine-readable plan.
		var f ctl.Formula
		var c pir.Choice
		if useEF {
			f = ctl.EF{F: ctl.Atom{P: whole}}
			pr, err := pir.Compile(ctl.Atom{P: whole})
			if err != nil {
				t.Fatal(err)
			}
			c = pir.Choose(pir.OpEF, pr)
		} else {
			f = ctl.AG{F: ctl.Not{F: ctl.Atom{P: whole}}}
			pr, err := pir.Compile(ctl.Not{F: ctl.Atom{P: whole}})
			if err != nil {
				t.Fatal(err)
			}
			c = pir.Choose(pir.OpAG, pr)
		}
		if c.Kind != pir.KindSliceFactor || !c.Slice.Sliced {
			t.Fatalf("trial %d: %s routed to %q (slice plan %s), want KindSliceFactor",
				trial, f, c.Cell, c.Slice)
		}
		routed++

		// Verdict: sliced Detect vs. the unsliced exponential solver vs.
		// brute-force lattice enumeration.
		res, err := Detect(comp, f)
		if err != nil {
			t.Fatalf("trial %d: Detect(%s): %v", trial, f, err)
		}
		least, wantEF := efArbitrary(comp, whole, nil)
		want := wantEF
		if !useEF {
			want = !wantEF
		}
		if res.Holds != want {
			t.Fatalf("trial %d: sliced Detect(%s) = %v via %q, unsliced solver says %v",
				trial, f, res.Holds, res.Algorithm, want)
		}
		if lw := evalTop(latticeOf(t, comp), f); res.Holds != lw {
			t.Fatalf("trial %d: sliced Detect(%s) = %v, lattice enumeration says %v",
				trial, f, res.Holds, lw)
		}

		// Evidence: both paths stop at the lexically least cut satisfying
		// whole — a witness for EF, a counterexample for AG — so the
		// sliced evidence must match the unsliced solver's bit for bit.
		var wantWitness []computation.Cut
		var wantCex computation.Cut
		if wantEF && useEF {
			wantWitness = []computation.Cut{least}
		} else if wantEF {
			wantCex = least
		}
		if !pathsEqual(res.Witness, wantWitness) || !cutsEqual(res.Counterexample, wantCex) {
			t.Fatalf("trial %d: sliced Detect(%s) evidence (witness %v, cex %v); unsliced solver's is (%v, %v)",
				trial, f, res.Witness, res.Counterexample, wantWitness, wantCex)
		}
		if res.Stats.SliceBuild <= 0 {
			t.Fatalf("trial %d: slice-routed run recorded no slice build time", trial)
		}

		// Determining prefix: along one linearization, the first prefix on
		// which the verdict latches must agree with the unsliced solver.
		if trial%8 == 0 {
			for _, cut := range linearization(comp) {
				pre := comp.Prefix(cut)
				preRes, err := Detect(pre, f)
				if err != nil {
					t.Fatalf("trial %d prefix %v: %v", trial, cut, err)
				}
				preWant := EFArbitrary(pre, whole)
				if !useEF {
					preWant = !preWant
				}
				if preRes.Holds != preWant {
					t.Fatalf("trial %d prefix %v: sliced %v, unsliced %v — determining prefixes diverge",
						trial, cut, preRes.Holds, preWant)
				}
			}
		}
	}
	if routed < 150 {
		t.Fatalf("only %d slice-routed formulas exercised, want >= 150", routed)
	}
}
