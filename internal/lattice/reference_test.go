package lattice

import (
	"slices"
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
)

// refBuild is the string-keyed breadth-first enumeration BuildLimited ran
// before it indexed cuts by computation.CutIndex: the reference for node
// order and cover edges.
func refBuild(comp *computation.Computation) (cuts []computation.Cut, succs [][]int) {
	index := map[string]int{comp.InitialCut().String(): 0}
	cuts = []computation.Cut{comp.InitialCut()}
	for head := 0; head < len(cuts); head++ {
		var ss []int
		for _, next := range comp.Successors(cuts[head]) {
			idx, seen := index[next.String()]
			if !seen {
				idx = len(cuts)
				cuts = append(cuts, next)
				index[next.String()] = idx
			}
			ss = append(ss, idx)
		}
		succs = append(succs, ss)
	}
	return cuts, succs
}

func TestBuildMatchesStringKeyedReference(t *testing.T) {
	configs := []sim.RandomConfig{
		{Procs: 1, Events: 6, Vars: 1, ValRange: 2},
		{Procs: 3, Events: 10, SendProb: 0.4, RecvProb: 0.8, Vars: 1, ValRange: 2},
		{Procs: 5, Events: 14, SendProb: 0.2, RecvProb: 0.6, Vars: 1, ValRange: 2},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 10; seed++ {
			comp := sim.Random(cfg, seed)
			l := MustBuild(comp)
			cuts, succs := refBuild(comp)
			if l.Size() != len(cuts) {
				t.Fatalf("%d procs seed %d: %d cuts, reference %d", cfg.Procs, seed, l.Size(), len(cuts))
			}
			preds := make([][]int, len(cuts))
			for i, ss := range succs {
				for _, j := range ss {
					preds[j] = append(preds[j], i)
				}
			}
			for i, c := range cuts {
				if !l.Cut(i).Equal(c) || !slices.Equal(l.Succs(i), succs[i]) || !slices.Equal(l.Preds(i), preds[i]) {
					t.Fatalf("%d procs seed %d node %d: %v succs %v preds %v, reference %v %v %v",
						cfg.Procs, seed, i, l.Cut(i), l.Succs(i), l.Preds(i), c, succs[i], preds[i])
				}
				if l.Index(c) != i {
					t.Fatalf("Index(%v) = %d, want %d", c, l.Index(c), i)
				}
			}
			if err := l.VerifyBirkhoff(); err != nil {
				t.Fatalf("%d procs seed %d: %v", cfg.Procs, seed, err)
			}
		}
	}
}
