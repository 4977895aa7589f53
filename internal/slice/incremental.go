package slice

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// NewIncremental computes the slice of comp with respect to the linear
// predicate p: I_p plus the J_p(e) of every event. For a linear predicate
// I_p ⊆ J_p(e(i,1)) ⊆ J_p(e(i,2)) ⊆ … (a satisfying cut containing a later
// event contains the earlier ones too), so one cursor per process starts
// at I_p, joins each event's clock, and Advance moves it on in place: at
// most |E| steps per process instead of |E| per event — O(n|E|) cut
// updates per process versus the O(n|E|²) worst case of the naive builder
// the tests keep as the reference, the Garg–Mittal complexity the paper
// quotes for slice generation. It allocates one copy per kept J, however
// many steps the predicate forces.
func NewIncremental(comp *computation.Computation, p predicate.Linear) *Slice {
	s := &Slice{comp: comp, p: p, j: make([][]computation.Cut, comp.N())}
	ip := comp.InitialCut()
	if _, s.satisfiable = Advance(comp, p, ip); s.satisfiable {
		s.ip = ip
	}
	cur := make(computation.Cut, comp.N())
	for i := range s.j {
		s.j[i] = make([]computation.Cut, comp.Len(i))
		if !s.satisfiable {
			continue
		}
		copy(cur, ip)
		for k, e := range comp.Events(i) {
			for q, c := range e.Clock {
				cur[q] = max(cur[q], c)
			}
			if _, ok := Advance(comp, p, cur); !ok {
				break // no satisfying cut contains e(i,k+1), so none contains a later event
			}
			s.j[i][k] = cur.Copy()
		}
	}
	return s
}
