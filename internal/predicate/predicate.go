// Package predicate defines global predicates over the consistent cuts of a
// distributed computation and the structural predicate classes the paper's
// algorithms exploit: local, conjunctive, disjunctive, stable, linear,
// post-linear, regular and observer-independent predicates.
//
// The key computational interface is Linear: a linear predicate exposes the
// Chase–Garg advancement property ("forbidden process") that lets EF, EG,
// AG and EU be detected in polynomial time without enumerating the lattice.
package predicate

import (
	"fmt"
	"strings"

	"repro/internal/computation"
)

// Predicate is a global, non-temporal predicate evaluated on a consistent
// cut of a computation. Implementations must be pure: Eval may be called
// many times on many cuts in any order.
type Predicate interface {
	// Eval reports whether the predicate holds at the given cut.
	Eval(c *computation.Computation, cut computation.Cut) bool
	// String renders the predicate for diagnostics.
	String() string
}

// Linear is a predicate whose satisfying cuts form an inf-semilattice
// (closed under meet). Such a predicate admits the advancement property:
// whenever it does not hold at a cut, some process is "forbidden" — every
// satisfying cut extending this one includes at least one more event of
// that process.
type Linear interface {
	Predicate
	// Forbidden returns a forbidden process for the cut. It is called only
	// when Eval is false. ok = false means the predicate provably holds at
	// no cut that contains this one, aborting the advancement early.
	Forbidden(c *computation.Computation, cut computation.Cut) (proc int, ok bool)
}

// PostLinear is the dual of Linear: satisfying cuts form a sup-semilattice
// (closed under join), and whenever the predicate fails at a cut some
// process must retreat — every satisfying cut contained in this one
// excludes the last included event of that process.
type PostLinear interface {
	Predicate
	// Retreat returns a process whose last event must be removed. Called
	// only when Eval is false. ok = false aborts: no satisfying cut is
	// contained in this one.
	Retreat(c *computation.Computation, cut computation.Cut) (proc int, ok bool)
}

// LocalPredicate is a predicate whose truth depends only on the local state
// of a single process.
type LocalPredicate interface {
	Predicate
	// Process returns the process the predicate is local to.
	Process() int
	// HoldsAt reports whether the predicate holds in local state k of its
	// process.
	HoldsAt(c *computation.Computation, k int) bool
}

// ---------------------------------------------------------------------------
// Local predicates

// Op is a comparison operator for variable predicates.
type Op string

// Comparison operators accepted by VarCmp.
const (
	LT Op = "<"
	LE Op = "<="
	EQ Op = "=="
	NE Op = "!="
	GE Op = ">="
	GT Op = ">"
)

// Holds reports whether "v op k" is true. It is the one place the
// operator is interpreted on values: VarCmp (offline) and the monitors'
// bound conjuncts (package online) both evaluate through it.
func (op Op) Holds(v, k int) bool {
	switch op {
	case LT:
		return v < k
	case LE:
		return v <= k
	case EQ:
		return v == k
	case NE:
		return v != k
	case GE:
		return v >= k
	case GT:
		return v > k
	default:
		panic(fmt.Sprintf("predicate: unknown operator %q", op))
	}
}

// VarCmp is the workhorse local predicate "variable OP constant on process
// Proc". An undefined variable reads as 0, matching the builder semantics.
type VarCmp struct {
	Proc int
	Var  string
	Op   Op
	K    int
}

var _ LocalPredicate = VarCmp{}

// Process implements LocalPredicate.
func (p VarCmp) Process() int { return p.Proc }

// HoldsAt implements LocalPredicate.
func (p VarCmp) HoldsAt(c *computation.Computation, k int) bool {
	v, _ := c.Value(p.Proc, k, p.Var)
	return p.Op.Holds(v, p.K)
}

// Eval implements Predicate.
func (p VarCmp) Eval(c *computation.Computation, cut computation.Cut) bool {
	return p.HoldsAt(c, cut[p.Proc])
}

// String implements Predicate.
func (p VarCmp) String() string {
	return fmt.Sprintf("%s@P%d %s %d", p.Var, p.Proc+1, p.Op, p.K)
}

// LocalFn wraps an arbitrary function of the local state as a local
// predicate, for predicates not expressible as a single comparison.
type LocalFn struct {
	Proc int
	Name string
	Fn   func(c *computation.Computation, k int) bool
}

var _ LocalPredicate = LocalFn{}

// Process implements LocalPredicate.
func (p LocalFn) Process() int { return p.Proc }

// HoldsAt implements LocalPredicate.
func (p LocalFn) HoldsAt(c *computation.Computation, k int) bool { return p.Fn(c, k) }

// Eval implements Predicate.
func (p LocalFn) Eval(c *computation.Computation, cut computation.Cut) bool {
	return p.Fn(c, cut[p.Proc])
}

// String implements Predicate.
func (p LocalFn) String() string { return fmt.Sprintf("%s@P%d", p.Name, p.Proc+1) }

// ---------------------------------------------------------------------------
// Conjunctive and disjunctive predicates

// Conjunctive is a conjunction of local predicates, the class of Garg and
// Waldecker's weak conjunctive predicates. Conjunctive predicates are
// regular, hence linear.
type Conjunctive struct {
	Locals []LocalPredicate
}

var _ Linear = Conjunctive{}

// Conj builds a conjunctive predicate from local predicates.
func Conj(locals ...LocalPredicate) Conjunctive { return Conjunctive{Locals: locals} }

// Eval implements Predicate.
func (p Conjunctive) Eval(c *computation.Computation, cut computation.Cut) bool {
	for _, l := range p.Locals {
		if !l.HoldsAt(c, cut[l.Process()]) {
			return false
		}
	}
	return true
}

// Forbidden implements Linear: a process whose local conjunct is false
// cannot reach a satisfying cut without executing further events.
func (p Conjunctive) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	for _, l := range p.Locals {
		if !l.HoldsAt(c, cut[l.Process()]) {
			return l.Process(), true
		}
	}
	panic("predicate: Forbidden called on satisfied conjunctive predicate")
}

// Retreat implements PostLinear: conjunctive predicates are also
// post-linear (their satisfying cuts are closed under join), so the same
// failing conjunct forces its process to retreat.
func (p Conjunctive) Retreat(c *computation.Computation, cut computation.Cut) (int, bool) {
	for _, l := range p.Locals {
		if !l.HoldsAt(c, cut[l.Process()]) {
			return l.Process(), true
		}
	}
	panic("predicate: Retreat called on satisfied conjunctive predicate")
}

// String implements Predicate.
func (p Conjunctive) String() string { return joinStrings("conj", localStrings(p.Locals)) }

// Disjunctive is a disjunction of local predicates. Its negation is
// conjunctive, which the AU composition of Section 7 exploits.
type Disjunctive struct {
	Locals []LocalPredicate
}

var _ Predicate = Disjunctive{}

// Disj builds a disjunctive predicate from local predicates.
func Disj(locals ...LocalPredicate) Disjunctive { return Disjunctive{Locals: locals} }

// Eval implements Predicate.
func (p Disjunctive) Eval(c *computation.Computation, cut computation.Cut) bool {
	for _, l := range p.Locals {
		if l.HoldsAt(c, cut[l.Process()]) {
			return true
		}
	}
	return false
}

// String implements Predicate.
func (p Disjunctive) String() string { return joinStrings("disj", localStrings(p.Locals)) }

// Negate returns the conjunctive complement ¬(l1 ∨ … ∨ lk) = ¬l1 ∧ … ∧ ¬lk.
func (p Disjunctive) Negate() Conjunctive {
	locals := make([]LocalPredicate, len(p.Locals))
	for i, l := range p.Locals {
		locals[i] = NotLocal{l}
	}
	return Conjunctive{Locals: locals}
}

// Negate returns the disjunctive complement of a conjunctive predicate.
func (p Conjunctive) Negate() Disjunctive {
	locals := make([]LocalPredicate, len(p.Locals))
	for i, l := range p.Locals {
		locals[i] = NotLocal{l}
	}
	return Disjunctive{Locals: locals}
}

// NotLocal is the negation of a local predicate; it is itself local.
type NotLocal struct {
	P LocalPredicate
}

var _ LocalPredicate = NotLocal{}

// Process implements LocalPredicate.
func (p NotLocal) Process() int { return p.P.Process() }

// HoldsAt implements LocalPredicate.
func (p NotLocal) HoldsAt(c *computation.Computation, k int) bool { return !p.P.HoldsAt(c, k) }

// Eval implements Predicate.
func (p NotLocal) Eval(c *computation.Computation, cut computation.Cut) bool {
	return !p.P.Eval(c, cut)
}

// String implements Predicate.
func (p NotLocal) String() string { return "!(" + p.P.String() + ")" }

func localStrings(ls []LocalPredicate) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.String()
	}
	return out
}

func joinStrings(head string, parts []string) string {
	return head + "(" + strings.Join(parts, ", ") + ")"
}

// ---------------------------------------------------------------------------
// Generic combinators (arbitrary predicates)

// Not negates an arbitrary predicate. The result carries no class
// information.
type Not struct {
	P Predicate
}

// Eval implements Predicate.
func (p Not) Eval(c *computation.Computation, cut computation.Cut) bool {
	return !p.P.Eval(c, cut)
}

// String implements Predicate.
func (p Not) String() string { return "!(" + p.P.String() + ")" }

// And is the conjunction of arbitrary predicates.
type And struct {
	Ps []Predicate
}

// Eval implements Predicate.
func (p And) Eval(c *computation.Computation, cut computation.Cut) bool {
	for _, q := range p.Ps {
		if !q.Eval(c, cut) {
			return false
		}
	}
	return true
}

// String implements Predicate.
func (p And) String() string {
	parts := make([]string, len(p.Ps))
	for i, q := range p.Ps {
		parts[i] = q.String()
	}
	return joinStrings("and", parts)
}

// Or is the disjunction of arbitrary predicates.
type Or struct {
	Ps []Predicate
}

// Eval implements Predicate.
func (p Or) Eval(c *computation.Computation, cut computation.Cut) bool {
	for _, q := range p.Ps {
		if q.Eval(c, cut) {
			return true
		}
	}
	return false
}

// String implements Predicate.
func (p Or) String() string {
	parts := make([]string, len(p.Ps))
	for i, q := range p.Ps {
		parts[i] = q.String()
	}
	return joinStrings("or", parts)
}

// AndLinear is the conjunction of linear predicates, which is again linear
// (inf-semilattices are closed under intersection).
type AndLinear struct {
	Ps []Linear
}

var _ Linear = AndLinear{}

// Eval implements Predicate.
func (p AndLinear) Eval(c *computation.Computation, cut computation.Cut) bool {
	for _, q := range p.Ps {
		if !q.Eval(c, cut) {
			return false
		}
	}
	return true
}

// Forbidden implements Linear by delegating to the first failing conjunct.
func (p AndLinear) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	for _, q := range p.Ps {
		if !q.Eval(c, cut) {
			return q.Forbidden(c, cut)
		}
	}
	panic("predicate: Forbidden called on satisfied conjunction")
}

// String implements Predicate.
func (p AndLinear) String() string {
	parts := make([]string, len(p.Ps))
	for i, q := range p.Ps {
		parts[i] = q.String()
	}
	return joinStrings("and", parts)
}

// ---------------------------------------------------------------------------
// Channel predicates

// ChannelsEmpty holds when no message is in flight. It is a monotonic
// channel predicate: regular (closed under join and meet), hence linear and
// post-linear.
type ChannelsEmpty struct{}

var (
	_ Linear     = ChannelsEmpty{}
	_ PostLinear = ChannelsEmpty{}
)

// Eval implements Predicate in O(n); cut must be consistent, as it is for
// every caller.
func (ChannelsEmpty) Eval(c *computation.Computation, cut computation.Cut) bool {
	return c.ChannelsEmpty(cut)
}

// firstInFlight returns the send and receive (nil if the message is never
// received) of the lowest-id message in flight at cut, scanning ids in
// order without allocating; s is nil when the channels are empty.
func firstInFlight(c *computation.Computation, cut computation.Cut) (s, r *computation.Event) {
	for id := 1; id <= c.MaxMsg(); id++ {
		s := c.SendOf(id)
		if s == nil || cut[s.Proc] < s.Index {
			continue // not yet sent
		}
		if r := c.RecvOf(id); r == nil || cut[r.Proc] < r.Index {
			return s, r
		}
	}
	return nil, nil
}

// Forbidden implements Linear: the receiver of the lowest in-flight
// message must advance past the pending receive; if that message is never
// received no cut above can satisfy the predicate.
func (ChannelsEmpty) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	s, r := firstInFlight(c, cut)
	if s == nil {
		panic("predicate: Forbidden called with empty channels")
	}
	if r == nil {
		return 0, false // sent but never received: unsatisfiable above
	}
	return r.Proc, true
}

// Retreat implements PostLinear: the sender of the lowest in-flight
// message must retreat to before the send.
func (ChannelsEmpty) Retreat(c *computation.Computation, cut computation.Cut) (int, bool) {
	s, _ := firstInFlight(c, cut)
	if s == nil {
		panic("predicate: Retreat called with empty channels")
	}
	return s.Proc, true
}

// String implements Predicate.
func (ChannelsEmpty) String() string { return "channelsEmpty" }

// ---------------------------------------------------------------------------
// Stable predicates

// Stable wraps a predicate the caller asserts to be stable (once true it
// stays true on every path). The lattice package provides CheckStable to
// verify the assertion on small computations.
type Stable struct {
	P Predicate
}

// Eval implements Predicate.
func (p Stable) Eval(c *computation.Computation, cut computation.Cut) bool {
	return p.P.Eval(c, cut)
}

// String implements Predicate.
func (p Stable) String() string { return "stable(" + p.P.String() + ")" }

// Received holds once message id has been received; receipt of a message
// is the canonical stable predicate.
type Received struct {
	ID int
}

var (
	_ Linear     = Received{}
	_ PostLinear = Received{}
)

// Eval implements Predicate.
func (p Received) Eval(c *computation.Computation, cut computation.Cut) bool {
	r := c.RecvOf(p.ID)
	return r != nil && cut[r.Proc] >= r.Index
}

// Forbidden implements Linear: the satisfying cuts are the up-set of the
// receive event (meet-closed), so the receiver must advance.
func (p Received) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	r := c.RecvOf(p.ID)
	if r == nil {
		return 0, false // message never received: unsatisfiable
	}
	return r.Proc, true
}

// Retreat implements PostLinear: no cut below a non-satisfying cut can
// contain the receive, so retreat always aborts.
func (p Received) Retreat(*computation.Computation, computation.Cut) (int, bool) {
	return 0, false
}

// String implements Predicate.
func (p Received) String() string { return fmt.Sprintf("received(%d)", p.ID) }

// Terminated holds at the final cut only; "all processes have executed all
// their events" is stable.
type Terminated struct{}

var (
	_ Linear     = Terminated{}
	_ PostLinear = Terminated{}
)

// Eval implements Predicate.
func (Terminated) Eval(c *computation.Computation, cut computation.Cut) bool {
	for i, k := range cut {
		if k < c.Len(i) {
			return false
		}
	}
	return true
}

// Forbidden implements Linear: only the final cut satisfies termination,
// so any process that has not finished must advance.
func (Terminated) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	for i, k := range cut {
		if k < c.Len(i) {
			return i, true
		}
	}
	panic("predicate: Forbidden called on terminated cut")
}

// Retreat implements PostLinear: no strict prefix of a non-final cut is
// final, so retreat aborts.
func (Terminated) Retreat(*computation.Computation, computation.Cut) (int, bool) {
	return 0, false
}

// String implements Predicate.
func (Terminated) String() string { return "terminated" }

// ---------------------------------------------------------------------------
// Constants

// Fn wraps an arbitrary function of the whole cut as a predicate. It
// carries no class information, so the dispatcher treats it as an
// arbitrary predicate.
type Fn struct {
	Name string
	F    func(c *computation.Computation, cut computation.Cut) bool
}

// Eval implements Predicate.
func (p Fn) Eval(c *computation.Computation, cut computation.Cut) bool { return p.F(c, cut) }

// String implements Predicate.
func (p Fn) String() string { return p.Name }

// Const is the constant predicate, used for the EF/AF abbreviations
// (EF(p) = E[true U p]).
type Const bool

// True and False are the constant predicates.
const (
	True  Const = true
	False Const = false
)

// Eval implements Predicate.
func (p Const) Eval(*computation.Computation, computation.Cut) bool { return bool(p) }

// Forbidden implements Linear vacuously: Const(true) never fails, and for
// Const(false) no cut satisfies the predicate.
func (p Const) Forbidden(*computation.Computation, computation.Cut) (int, bool) {
	return 0, false
}

// Retreat implements PostLinear vacuously.
func (p Const) Retreat(*computation.Computation, computation.Cut) (int, bool) {
	return 0, false
}

// String implements Predicate.
func (p Const) String() string {
	if p {
		return "true"
	}
	return "false"
}
