package predicate

import (
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
)

// threeProcChannels: P1 sends m1 to P2 and m2 to P3; P2 sends m3 to P3;
// one message (m2) is never received.
func threeProcChannels(t testing.TB) *computation.Computation {
	t.Helper()
	b := computation.NewBuilder(3)
	_, m1 := b.Send(0)
	_, m2 := b.Send(0)
	_ = m2 // never received
	b.Receive(1, m1)
	_, m3 := b.Send(1)
	b.Receive(2, m3)
	return b.MustBuild()
}

func TestChannelEmptyEval(t *testing.T) {
	c := threeProcChannels(t)
	p12 := ChannelEmpty{From: 0, To: 1}
	p13 := ChannelEmpty{From: 0, To: 2}
	p23 := ChannelEmpty{From: 1, To: 2}

	cases := []struct {
		cut computation.Cut
		p12 bool
		p13 bool
		p23 bool
	}{
		{computation.Cut{0, 0, 0}, true, true, true},
		{computation.Cut{1, 0, 0}, false, true, true}, // m1 in flight
		// m2 is never received: once sent it counts against every
		// outgoing channel of P1 (conservative attribution).
		{computation.Cut{2, 0, 0}, false, false, true},
		{computation.Cut{2, 1, 0}, false, false, true},
		{computation.Cut{2, 2, 0}, false, false, false}, // m3 in flight
		{computation.Cut{2, 2, 1}, false, false, true},
	}
	for _, tc := range cases {
		if got := p12.Eval(c, tc.cut); got != tc.p12 {
			t.Errorf("p12 at %v = %v, want %v", tc.cut, got, tc.p12)
		}
		if got := p13.Eval(c, tc.cut); got != tc.p13 {
			t.Errorf("p13 at %v = %v, want %v", tc.cut, got, tc.p13)
		}
		if got := p23.Eval(c, tc.cut); got != tc.p23 {
			t.Errorf("p23 at %v = %v, want %v", tc.cut, got, tc.p23)
		}
	}
}

func TestChannelEmptyForbiddenRetreat(t *testing.T) {
	c := threeProcChannels(t)
	p12 := ChannelEmpty{From: 0, To: 1}
	proc, ok := p12.Forbidden(c, computation.Cut{1, 0, 0})
	if !ok || proc != 1 {
		t.Errorf("Forbidden = %d, %v; want receiver P2", proc, ok)
	}
	proc, ok = p12.Retreat(c, computation.Cut{1, 0, 0})
	if !ok || proc != 0 {
		t.Errorf("Retreat = %d, %v; want sender P1", proc, ok)
	}
	// m2 is never received: channel P1→P3 unsatisfiable above a cut
	// containing the send.
	p13 := ChannelEmpty{From: 0, To: 2}
	if _, ok := p13.Forbidden(c, computation.Cut{2, 0, 0}); ok {
		t.Error("Forbidden should abort for a never-received message")
	}
	defer func() {
		if recover() == nil {
			t.Error("Forbidden on satisfied channel did not panic")
		}
	}()
	p12.Forbidden(c, computation.Cut{0, 0, 0})
}

func TestChannelEmptyRetreatPanicsWhenSatisfied(t *testing.T) {
	c := threeProcChannels(t)
	defer func() {
		if recover() == nil {
			t.Error("Retreat on satisfied channel did not panic")
		}
	}()
	ChannelEmpty{From: 0, To: 1}.Retreat(c, computation.Cut{0, 0, 0})
}

func TestInFlightAtMost(t *testing.T) {
	c := threeProcChannels(t)
	if !(InFlightAtMost{K: 0}).Eval(c, computation.Cut{0, 0, 0}) {
		t.Error("0 in flight at ∅")
	}
	if (InFlightAtMost{K: 1}).Eval(c, computation.Cut{2, 2, 0}) {
		t.Error("m2 and m3 are both in flight at <2 2 0>")
	}
	if !(InFlightAtMost{K: 2}).Eval(c, computation.Cut{2, 2, 0}) {
		t.Error("exactly 2 in flight at <2 2 0>")
	}
	if (InFlightAtMost{K: 1}).String() == "" {
		t.Error("empty String")
	}
}

func TestAtLeastK(t *testing.T) {
	b := computation.NewBuilder(3)
	computation.Set(b.Internal(0), "done", 1)
	computation.Set(b.Internal(1), "done", 1)
	computation.Set(b.Internal(2), "done", 1)
	c := b.MustBuild()

	locals := []LocalPredicate{
		VarCmp{Proc: 0, Var: "done", Op: EQ, K: 1},
		VarCmp{Proc: 1, Var: "done", Op: EQ, K: 1},
		VarCmp{Proc: 2, Var: "done", Op: EQ, K: 1},
	}
	p2 := AtLeastK{K: 2, Locals: locals}
	cases := []struct {
		cut  computation.Cut
		want bool
	}{
		{computation.Cut{0, 0, 0}, false},
		{computation.Cut{1, 0, 0}, false},
		{computation.Cut{1, 1, 0}, true},
		{computation.Cut{1, 1, 1}, true},
	}
	for _, tc := range cases {
		if got := p2.Eval(c, tc.cut); got != tc.want {
			t.Errorf("atLeast2 at %v = %v, want %v", tc.cut, got, tc.want)
		}
	}
	if !(AtLeastK{K: 0, Locals: locals}).Eval(c, computation.Cut{0, 0, 0}) {
		t.Error("atLeast0 must hold vacuously")
	}
	if !strings.Contains(p2.String(), "atLeast(2") {
		t.Errorf("String = %q", p2.String())
	}
}

// refInFlight is the per-message definition the O(n) count replaced: the
// ids whose send is in cut and whose receive is not, ascending.
func refInFlight(c *computation.Computation, cut computation.Cut, keep func(s, r *computation.Event) bool) []int {
	var ids []int
	for _, id := range c.Messages() {
		s, r := c.SendOf(id), c.RecvOf(id)
		if cut[s.Proc] >= s.Index && (r == nil || cut[r.Proc] < r.Index) && keep(s, r) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestChannelPredicatesMatchReference holds InFlight, ChannelsEmpty and
// ChannelEmpty — Eval, Forbidden, Retreat — to the per-message scans they
// replaced, on every consistent cut of small random computations.
func TestChannelPredicatesMatchReference(t *testing.T) {
	cfg := sim.RandomConfig{Procs: 3, Events: 10, SendProb: 0.5, RecvProb: 0.6, Vars: 1, ValRange: 2}
	for seed := int64(0); seed < 40; seed++ {
		c := sim.Random(cfg, seed)
		seen := map[string]bool{}
		queue := []computation.Cut{c.InitialCut()}
		for len(queue) > 0 {
			cut := queue[0]
			queue = queue[1:]
			if seen[cut.String()] {
				continue
			}
			seen[cut.String()] = true
			queue = append(queue, c.Successors(cut)...)

			ids := refInFlight(c, cut, func(_, _ *computation.Event) bool { return true })
			if got := c.InFlight(cut); got != len(ids) {
				t.Fatalf("seed %d cut %v: InFlight = %d, want %d", seed, cut, got, len(ids))
			}
			checkLinear(t, c, cut, ChannelsEmpty{}, ids, seed)
			for from := 0; from < c.N(); from++ {
				for to := 0; to < c.N(); to++ {
					p := ChannelEmpty{From: from, To: to}
					ids := refInFlight(c, cut, func(s, r *computation.Event) bool {
						return s.Proc == from && (r == nil || r.Proc == to)
					})
					checkLinear(t, c, cut, p, ids, seed)
				}
			}
		}
	}
}

// checkLinear compares p with the reference answers for in-flight ids:
// Forbidden names the receiver of the first of them that is received at
// all, Retreat the sender of the first.
func checkLinear(t *testing.T, c *computation.Computation, cut computation.Cut, p interface {
	Linear
	PostLinear
}, ids []int, seed int64) {
	t.Helper()
	if got := p.Eval(c, cut); got != (len(ids) == 0) {
		t.Fatalf("seed %d %s at %v: Eval = %v with %v in flight", seed, p, cut, got, ids)
	}
	if len(ids) == 0 {
		return
	}
	wantProc, wantOK := 0, false
	for _, id := range ids {
		if r := c.RecvOf(id); r != nil {
			wantProc, wantOK = r.Proc, true
			break
		}
		if _, global := p.(ChannelsEmpty); global {
			break // only the lowest id counts
		}
	}
	if proc, ok := p.Forbidden(c, cut); proc != wantProc || ok != wantOK {
		t.Fatalf("seed %d %s at %v: Forbidden = %d, %v; want %d, %v", seed, p, cut, proc, ok, wantProc, wantOK)
	}
	if proc, ok := p.Retreat(c, cut); proc != c.SendOf(ids[0]).Proc || !ok {
		t.Fatalf("seed %d %s at %v: Retreat = %d, %v; want %d", seed, p, cut, proc, ok, c.SendOf(ids[0]).Proc)
	}
}
