// Package slice implements computation slicing (Mittal–Garg) for linear
// and regular predicates: a compact representation of exactly the
// consistent cuts that satisfy a predicate, built from the least satisfying
// cut J_p(e) containing each event e.
//
// For a regular predicate the satisfying cuts are precisely the unions of
// I_p and the J_p(e); the slice therefore answers membership, EF, EG and AG
// queries without enumerating the lattice. The paper's Algorithm A3 cites
// slicing for its Step 2; this package also powers the slicing ablation
// benches.
package slice

import (
	"fmt"
	"strings"

	"repro/internal/computation"
	"repro/internal/predicate"
)

// Slice is the computation slice of a predicate.
type Slice struct {
	comp *computation.Computation
	p    predicate.Linear
	// ip is the least satisfying cut I_p; nil when p is unsatisfiable.
	ip computation.Cut
	// j[i][k] is J_p(e) for event (i, k+1); nil when no satisfying cut
	// contains the event.
	j [][]computation.Cut
	// satisfiable is false when no consistent cut satisfies p.
	satisfiable bool
}

// Advance moves the consistent cut in place to the least cut above it
// satisfying the linear predicate p (the Chase–Garg advancement): while p
// fails, the next event of its forbidden process joins the cut with its
// clock. It returns the number of joins; when ok is false no satisfying
// cut lies above the start, and cut is left part-way.
func Advance(comp *computation.Computation, p predicate.Linear, cut computation.Cut) (steps int, ok bool) {
	for !p.Eval(comp, cut) {
		i, ok := p.Forbidden(comp, cut)
		if !ok || cut[i] >= comp.Len(i) {
			return steps, false
		}
		for j, c := range comp.Event(i, cut[i]+1).Clock {
			cut[j] = max(cut[j], c)
		}
		steps++
	}
	return steps, true
}

// Satisfiable reports whether any consistent cut satisfies the predicate.
func (s *Slice) Satisfiable() bool { return s.satisfiable }

// Counts reports how many events survive in the slice (some satisfying
// cut contains them) and how many were eliminated (no satisfying cut
// does). Eliminated events can never appear in a satisfying cut, so any
// search restricted to the slice skips them entirely — the number the
// slicing ablation and core.Stats report as events eliminated.
func (s *Slice) Counts() (kept, eliminated int) {
	for i := range s.j {
		for _, jc := range s.j[i] {
			if jc != nil {
				kept++
			} else {
				eliminated++
			}
		}
	}
	return kept, eliminated
}

// Least returns I_p; ok is false when the predicate is unsatisfiable.
func (s *Slice) Least() (computation.Cut, bool) { return s.ip, s.satisfiable }

// J returns J_p(e) for event (i, k) with k 1-based; ok is false when no
// satisfying cut contains the event.
func (s *Slice) J(i, k int) (computation.Cut, bool) {
	cut := s.j[i][k-1]
	return cut, cut != nil
}

// Sat reports whether the consistent cut c satisfies the predicate, using
// only the slice: c must contain I_p and the J of each of its events. For
// regular predicates this is exact; tests verify it against direct
// evaluation.
func (s *Slice) Sat(c computation.Cut) bool {
	if !s.satisfiable || !s.ip.LessEq(c) {
		return false
	}
	for i, k := range c {
		for e := 1; e <= k; e++ {
			jc := s.j[i][e-1]
			if jc == nil || !jc.LessEq(c) {
				return false
			}
		}
	}
	return true
}

// EG reports whether EG(p) holds, i.e. whether the satisfying cuts contain
// a full one-event-at-a-time chain from ∅ to E: the slice admits such a
// chain iff ∅ and E satisfy p and events can be consumed greedily, always
// picking an event whose J is covered. Tests verify agreement with
// Algorithm A1.
func (s *Slice) EG() bool {
	if !s.satisfiable {
		return false
	}
	cur := s.comp.InitialCut()
	if !s.ip.LessEq(cur) { // ∅ must satisfy p
		return false
	}
	total := s.comp.TotalEvents()
	for step := 0; step < total; step++ {
		progressed := false
		for i := range cur {
			if cur[i] >= s.comp.Len(i) || !s.comp.EnabledEvent(cur, i) {
				continue
			}
			jc := s.j[i][cur[i]]
			if jc == nil {
				continue
			}
			cur[i]++
			if jc.LessEq(cur) && s.Sat(cur) {
				progressed = true
				break
			}
			cur[i]--
		}
		if !progressed {
			return false
		}
	}
	return true
}

// AG reports whether AG(p) holds by checking the slice against the
// meet-irreducible cuts, mirroring Algorithm A2 but answering from the
// slice's Sat.
func (s *Slice) AG() bool {
	if !s.Sat(s.comp.FinalCut()) {
		return false
	}
	for i := 0; i < s.comp.N(); i++ {
		for _, e := range s.comp.Events(i) {
			if !s.Sat(s.comp.UpSetComplement(e)) {
				return false
			}
		}
	}
	return true
}

// String summarizes the slice.
func (s *Slice) String() string {
	if !s.satisfiable {
		return fmt.Sprintf("slice(%s): unsatisfiable", s.p)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slice(%s): I_p=%v", s.p, s.ip)
	for i := range s.j {
		for k, jc := range s.j[i] {
			if jc != nil {
				fmt.Fprintf(&b, " J(P%d:%d)=%v", i+1, k+1, jc)
			}
		}
	}
	return b.String()
}
