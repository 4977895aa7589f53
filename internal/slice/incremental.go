package slice

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// NewIncremental computes the slice of comp with respect to the linear
// predicate p: I_p plus the J_p(e) of every event. It amortizes the
// advancement across each process's events: for any linear predicate,
// J_p(e(i,1)) ⊆ J_p(e(i,2)) ⊆ … (a satisfying cut containing a later
// event contains the earlier ones too), so the per-process advancement
// cursor only moves forward. Total advancement steps per process are
// bounded by |E| instead of |E| per event — O(n|E|) cut updates per
// process versus the O(n|E|²) worst case of one advancement per event
// from ↓e (the naive builder the tests keep as the reference). This is
// the Garg–Mittal complexity the paper quotes for slice generation.
func NewIncremental(comp *computation.Computation, p predicate.Linear) *Slice {
	s := &Slice{comp: comp, p: p, j: make([][]computation.Cut, comp.N())}
	s.ip, s.satisfiable = leastFrom(comp, p, comp.InitialCut())
	for i := 0; i < comp.N(); i++ {
		s.j[i] = make([]computation.Cut, comp.Len(i))
		if !s.satisfiable {
			continue
		}
		cur := comp.InitialCut()
		alive := true
		for k := 1; k <= comp.Len(i); k++ {
			if !alive {
				break // no satisfying cut contains e(i,k-1), so none contains e(i,k)
			}
			cur = computation.Join(cur, comp.DownSet(comp.Event(i, k)))
			next, ok := leastFrom(comp, p, cur)
			if !ok {
				alive = false
				continue
			}
			cur = next
			s.j[i][k-1] = cur.Copy()
		}
	}
	return s
}
