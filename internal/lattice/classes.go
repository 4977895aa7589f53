package lattice

import (
	"fmt"

	"repro/internal/computation"
	"repro/internal/predicate"
)

// CheckLinear verifies by enumeration that the satisfying cuts of p form an
// inf-semilattice (are closed under meet). It returns a counterexample pair
// when the predicate is not linear.
func (l *Lattice) CheckLinear(p predicate.Predicate) (ok bool, a, b computation.Cut) {
	sat := l.Sat(p)
	for x := 0; x < len(sat); x++ {
		for y := x + 1; y < len(sat); y++ {
			ca, cb := l.cuts[sat[x]], l.cuts[sat[y]]
			if !p.Eval(l.comp, computation.Meet(ca, cb)) {
				return false, ca, cb
			}
		}
	}
	return true, nil, nil
}

// CheckPostLinear verifies that the satisfying cuts of p are closed under
// join (form a sup-semilattice).
func (l *Lattice) CheckPostLinear(p predicate.Predicate) (ok bool, a, b computation.Cut) {
	sat := l.Sat(p)
	for x := 0; x < len(sat); x++ {
		for y := x + 1; y < len(sat); y++ {
			ca, cb := l.cuts[sat[x]], l.cuts[sat[y]]
			if !p.Eval(l.comp, computation.Join(ca, cb)) {
				return false, ca, cb
			}
		}
	}
	return true, nil, nil
}

// CheckRegular verifies closure under both meet and join: the satisfying
// cuts form a sublattice.
func (l *Lattice) CheckRegular(p predicate.Predicate) bool {
	okM, _, _ := l.CheckLinear(p)
	okJ, _, _ := l.CheckPostLinear(p)
	return okM && okJ
}

// CheckStable verifies that p, once true, remains true: for every cover
// edge G ▷ H of the lattice, p(G) implies p(H). Since every maximal cut
// sequence is a chain of cover edges this is equivalent to stability along
// all observations.
func (l *Lattice) CheckStable(p predicate.Predicate) (ok bool, g, h computation.Cut) {
	for i, ss := range l.succs {
		if !p.Eval(l.comp, l.cuts[i]) {
			continue
		}
		for _, j := range ss {
			if !p.Eval(l.comp, l.cuts[j]) {
				return false, l.cuts[i], l.cuts[j]
			}
		}
	}
	return true, nil, nil
}

// LeastSat returns the least satisfying cut I_p if the satisfying set is
// non-empty and closed under meet, by folding meet over all satisfying
// cuts. ok is false when no cut satisfies p or when the meet of the
// satisfying cuts does not itself satisfy p (p not linear).
func (l *Lattice) LeastSat(p predicate.Predicate) (computation.Cut, bool) {
	sat := l.Sat(p)
	if len(sat) == 0 {
		return nil, false
	}
	least := l.cuts[sat[0]].Copy()
	for _, i := range sat[1:] {
		least = computation.Meet(least, l.cuts[i])
	}
	if !p.Eval(l.comp, least) {
		return nil, false
	}
	return least, true
}

// GreatestSat is the dual of LeastSat for post-linear predicates.
func (l *Lattice) GreatestSat(p predicate.Predicate) (computation.Cut, bool) {
	sat := l.Sat(p)
	if len(sat) == 0 {
		return nil, false
	}
	greatest := l.cuts[sat[0]].Copy()
	for _, i := range sat[1:] {
		greatest = computation.Join(greatest, l.cuts[i])
	}
	if !p.Eval(l.comp, greatest) {
		return nil, false
	}
	return greatest, true
}

// VerifyLatticeLaws checks that the cut set is closed under join and meet
// and that the distributivity law a ⊓ (b ⊔ c) = (a ⊓ b) ⊔ (a ⊓ c) holds
// over all triples. Exponential in lattice size; tests only. A nil return
// means all laws hold.
func (l *Lattice) VerifyLatticeLaws() error {
	for _, a := range l.cuts {
		for _, b := range l.cuts {
			if l.Index(computation.Join(a, b)) < 0 {
				return fmt.Errorf("join %v ⊔ %v escapes the lattice", a, b)
			}
			if l.Index(computation.Meet(a, b)) < 0 {
				return fmt.Errorf("meet %v ⊓ %v escapes the lattice", a, b)
			}
		}
	}
	for _, a := range l.cuts {
		for _, b := range l.cuts {
			for _, c := range l.cuts {
				lhs := computation.Meet(a, computation.Join(b, c))
				rhs := computation.Join(computation.Meet(a, b), computation.Meet(a, c))
				if !lhs.Equal(rhs) {
					return fmt.Errorf("distributivity fails at %v, %v, %v", a, b, c)
				}
			}
		}
	}
	return nil
}

// VerifyBirkhoff checks Corollary 4 on every element: each non-top cut
// equals the meet of the meet-irreducible elements above it, and the
// meet-irreducible elements found by degree counting are exactly the cuts
// E − ↑e produced by the Birkhoff formula. A nil return means the
// representation theorem holds on this lattice.
func (l *Lattice) VerifyBirkhoff() error {
	mi := l.MeetIrreducibles()
	// Degree-based meet-irreducibles == formula-based ones.
	formula := computation.NewCutIndex(l.comp)
	for i := 0; i < l.comp.N(); i++ {
		for _, e := range l.comp.Events(i) {
			formula.Insert(l.comp.UpSetComplement(e))
		}
	}
	if formula.Len() != len(mi) {
		return fmt.Errorf("formula yields %d meet-irreducibles, degree count %d", formula.Len(), len(mi))
	}
	for _, i := range mi {
		if _, ok := formula.Lookup(l.cuts[i]); !ok {
			return fmt.Errorf("degree-based meet-irreducible %v not produced by E−↑e formula", l.cuts[i])
		}
	}
	// Corollary 4: a = ⊓ {x ∈ M(L) | a ⊆ x}.
	for idx, a := range l.cuts {
		if idx == l.final {
			continue
		}
		acc := l.comp.FinalCut()
		for _, i := range mi {
			if a.LessEq(l.cuts[i]) {
				acc = computation.Meet(acc, l.cuts[i])
			}
		}
		if !acc.Equal(a) {
			return fmt.Errorf("cut %v is not the meet of the meet-irreducibles above it (got %v)", a, acc)
		}
	}
	// Dually for join-irreducibles: these must be exactly the down-sets ↓e.
	ji := l.JoinIrreducibles()
	down := computation.NewCutIndex(l.comp)
	for i := 0; i < l.comp.N(); i++ {
		for _, e := range l.comp.Events(i) {
			down.Insert(l.comp.DownSet(e))
		}
	}
	if down.Len() != len(ji) {
		return fmt.Errorf("formula yields %d join-irreducibles, degree count %d", down.Len(), len(ji))
	}
	for _, i := range ji {
		if _, ok := down.Lookup(l.cuts[i]); !ok {
			return fmt.Errorf("join-irreducible %v is not a ↓e", l.cuts[i])
		}
	}
	return nil
}
