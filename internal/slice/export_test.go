package slice

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// NewNaive exports naiveSlice to the package's external tests.
var NewNaive = naiveSlice

// naiveSlice is the reference slice builder: one advancement run for I_p
// plus one from ↓e for every event e, i.e. O(n|E|) predicate evaluations
// per run and O(n|E|²) in total. NewIncremental must build the identical
// slice (TestIncrementalMatchesNaive).
func naiveSlice(comp *computation.Computation, p predicate.Linear) *Slice {
	s := &Slice{comp: comp, p: p, j: make([][]computation.Cut, comp.N())}
	ip := comp.InitialCut()
	if _, s.satisfiable = Advance(comp, p, ip); s.satisfiable {
		s.ip = ip
	}
	for i := 0; i < comp.N(); i++ {
		s.j[i] = make([]computation.Cut, comp.Len(i))
		if !s.satisfiable {
			continue
		}
		for k := 1; k <= comp.Len(i); k++ {
			cut := comp.DownSet(comp.Event(i, k))
			if _, ok := Advance(comp, p, cut); ok {
				s.j[i][k-1] = cut
			}
		}
	}
	return s
}
