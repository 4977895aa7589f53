package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/predicate"
	"repro/internal/slice"
)

// recorder is a remainder that never holds and keeps a copy of every cut
// it is evaluated at, in order.
func recorder(seen *[]computation.Cut) predicate.Predicate {
	return predicate.Fn{Name: "record", F: func(_ *computation.Computation, cut computation.Cut) bool {
		*seen = append(*seen, cut.Copy())
		return false
	}}
}

// checkLexVisits fails unless visited is strictly increasing in lexical
// order and holds exactly the lattice cuts that satisfy p.
func checkLexVisits(t *testing.T, name string, comp *computation.Computation, p predicate.Predicate, visited []computation.Cut) {
	t.Helper()
	for k := 1; k < len(visited); k++ {
		if slices.Compare(visited[k-1], visited[k]) >= 0 {
			t.Fatalf("%s: visit %d %v does not follow %v in lexical order", name, k, visited[k], visited[k-1])
		}
	}
	var want []computation.Cut
	for _, c := range lexCuts(t, comp) {
		if p.Eval(comp, c) {
			want = append(want, c)
		}
	}
	if !slices.EqualFunc(visited, want, computation.Cut.Equal) {
		t.Fatalf("%s: visited %d cuts %v, want the %d satisfying cuts %v", name, len(visited), visited, len(want), want)
	}
}

// TestLexWalkVisitsEachCutOnce pins the walker's contract on the whole
// lattice (efArbitrary) and on slices (searchSlice): every cut of the
// sublattice once, in strictly increasing lexical order.
func TestLexWalkVisitsEachCutOnce(t *testing.T) {
	walked := 0
	for ci, comp := range testComps(t) {
		var seen []computation.Cut
		var st Stats
		if _, ok := efArbitrary(comp, recorder(&seen), &st); ok {
			t.Fatal("the recorder never holds, yet the walk stopped")
		}
		checkLexVisits(t, "lattice", comp, predicate.True, seen)
		if int(st.CutsVisited) != len(seen) {
			t.Fatalf("comp %d: %d cuts counted, %d visited", ci, st.CutsVisited, len(seen))
		}
		for _, factor := range conjBattery(comp) {
			seen = seen[:0]
			sl := slice.NewIncremental(comp, factor)
			searchSlice(comp, sl, factor, recorder(&seen), nil)
			checkLexVisits(t, "slice of "+factor.String(), comp, factor, seen)
			walked++
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		comp, factor, _ := edgeShape(4, 24, 3, seed)
		var seen []computation.Cut
		var st Stats
		searchSlice(comp, slice.NewIncremental(comp, factor), factor, recorder(&seen), &st)
		checkLexVisits(t, "edge shape", comp, factor, seen)
		if int(st.SliceCutsEnumerated) != len(seen) || len(seen) < 20 {
			t.Fatalf("edge shape seed %d: %d cuts counted, %d evaluated", seed, st.SliceCutsEnumerated, len(seen))
		}
	}
	if walked == 0 {
		t.Fatal("no slice walked")
	}
}

// TestEFEvidenceIsLexLeast checks the evidence both lexical routes return:
// the sliced witness of EF(factor ∧ rest), the unsliced solver's witness
// and the lexically least satisfying cut of the explicit lattice are one
// cut, and AG(¬(factor ∧ rest)) returns it as its counterexample.
func TestEFEvidenceIsLexLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	found, sliced := 0, 0
	for ci, comp := range testComps(t) {
		cuts := lexCuts(t, comp)
		for _, factor := range conjBattery(comp) {
			whole := predicate.And{Ps: []predicate.Predicate{factor, randomSliceRemainder(rng, comp)}}
			var least computation.Cut
			for _, c := range cuts {
				if whole.Eval(comp, c) {
					least = c
					break
				}
			}
			unsliced, _ := efArbitrary(comp, whole, nil)
			ef, err := Detect(comp, ctl.EF{F: ctl.Atom{P: whole}})
			if err != nil {
				t.Fatal(err)
			}
			ag, err := Detect(comp, ctl.AG{F: ctl.Not{F: ctl.Atom{P: whole}}})
			if err != nil {
				t.Fatal(err)
			}
			if ef.Stats.SliceBuild > 0 {
				sliced++
			}
			var want []computation.Cut
			if least != nil {
				want = []computation.Cut{least}
				found++
			}
			if !cutsEqual(unsliced, least) || !pathsEqual(ef.Witness, want) || !cutsEqual(ag.Counterexample, least) {
				t.Fatalf("comp %d %s: sliced witness %v (%s), unsliced %v, AG counterexample %v (%s), lattice's least %v",
					ci, whole, ef.Witness, ef.Algorithm, unsliced, ag.Counterexample, ag.Algorithm, least)
			}
		}
	}
	if found == 0 || sliced == 0 {
		t.Fatalf("%d formulas held and %d were sliced; want some of each", found, sliced)
	}
}
