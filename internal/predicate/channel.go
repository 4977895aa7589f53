package predicate

import (
	"fmt"

	"repro/internal/computation"
)

// ChannelEmpty holds when no message from process From to process To is in
// flight. Like the global ChannelsEmpty it is a monotonic channel
// predicate: regular, hence both linear and post-linear.
//
// A message that is never received within the computation has no
// identifiable destination; it is conservatively attributed to every
// outgoing channel of its sender (it keeps them all non-empty once sent).
type ChannelEmpty struct {
	From, To int
}

var (
	_ Linear     = ChannelEmpty{}
	_ PostLinear = ChannelEmpty{}
)

// inFlight reports whether a From→To message is in flight at cut, and
// whether one of those is received (by To) later, scanning message ids in
// order without allocating.
func (p ChannelEmpty) inFlight(c *computation.Computation, cut computation.Cut) (pending, received bool) {
	for id := 1; id <= c.MaxMsg(); id++ {
		s := c.SendOf(id)
		if s == nil || s.Proc != p.From || cut[s.Proc] < s.Index {
			continue
		}
		switch r := c.RecvOf(id); {
		case r == nil:
			pending = true
		case r.Proc == p.To && cut[r.Proc] < r.Index:
			return true, true
		}
	}
	return pending, false
}

// Eval implements Predicate.
func (p ChannelEmpty) Eval(c *computation.Computation, cut computation.Cut) bool {
	pending, _ := p.inFlight(c, cut)
	return !pending
}

// Forbidden implements Linear: the receiver must consume the pending
// message; a message that is never received makes the predicate
// unsatisfiable above the cut.
func (p ChannelEmpty) Forbidden(c *computation.Computation, cut computation.Cut) (int, bool) {
	pending, received := p.inFlight(c, cut)
	if !pending {
		panic("predicate: Forbidden called with empty channel")
	}
	if received {
		return p.To, true
	}
	return 0, false
}

// Retreat implements PostLinear: the sender must undo the send.
func (p ChannelEmpty) Retreat(c *computation.Computation, cut computation.Cut) (int, bool) {
	if pending, _ := p.inFlight(c, cut); !pending {
		panic("predicate: Retreat called with empty channel")
	}
	return p.From, true
}

// String implements Predicate; the rendering matches the CTL parser's
// channelEmpty(...) syntax.
func (p ChannelEmpty) String() string {
	return fmt.Sprintf("channelEmpty(P%d, P%d)", p.From+1, p.To+1)
}

// InFlightAtMost holds when at most K messages are in flight anywhere. For
// K = 0 it coincides with ChannelsEmpty. It is a monotonic channel
// predicate in the sense of Chase–Garg... but unlike emptiness it is not
// meet-closed in general (two cuts can each keep different K-subsets in
// flight while their intersection has more sends outstanding than
// receives); it is kept as an example of an *arbitrary* channel predicate
// for the exponential cells and is routed accordingly.
type InFlightAtMost struct {
	K int
}

// Eval implements Predicate.
func (p InFlightAtMost) Eval(c *computation.Computation, cut computation.Cut) bool {
	return c.InFlight(cut) <= p.K
}

// String implements Predicate.
func (p InFlightAtMost) String() string { return fmt.Sprintf("inFlight <= %d", p.K) }

// AtLeastK holds when at least K of the given *stable* local predicates
// hold. If every local predicate is stable (monotone along its process —
// once true at a state, true at all later states), the count never
// decreases along any path, making AtLeastK a stable global predicate
// (hence observer-independent). The constructor does not verify stability;
// lattice.CheckStable can, on small computations.
type AtLeastK struct {
	K      int
	Locals []LocalPredicate
}

// Eval implements Predicate.
func (p AtLeastK) Eval(c *computation.Computation, cut computation.Cut) bool {
	count := 0
	for _, l := range p.Locals {
		if l.HoldsAt(c, cut[l.Process()]) {
			count++
			if count >= p.K {
				return true
			}
		}
	}
	return count >= p.K
}

// String implements Predicate; the rendering matches the CTL parser's
// atLeast(...) syntax.
func (p AtLeastK) String() string {
	parts := localStrings(p.Locals)
	out := fmt.Sprintf("atLeast(%d", p.K)
	for _, s := range parts {
		out += ", " + s
	}
	return out + ")"
}
