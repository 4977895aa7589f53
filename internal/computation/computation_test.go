package computation

import (
	"testing"
)

// fig2 builds the reconstruction of the paper's Figure 2 computation:
// two processes P1 (events e1 e2 e3) and P2 (f1 f2 f3), a message from f2
// received at e1 and a message from e2 received at f3. Its lattice has 8
// consistent cuts and satisfies the paper's factorizations
// X = ⊓{E1,E2,E3,F3} and Y = ⊓{E3,F3}.
func fig2(t testing.TB) *Computation {
	t.Helper()
	b := NewBuilder(2)
	WithLabel(b.Internal(1), "f1")
	f2, m1 := b.Send(1)
	WithLabel(f2, "f2")
	WithLabel(b.Receive(0, m1), "e1")
	e2, m2 := b.Send(0)
	WithLabel(e2, "e2")
	WithLabel(b.Internal(0), "e3")
	WithLabel(b.Receive(1, m2), "f3")
	return b.MustBuild()
}

func TestBuilderClocks(t *testing.T) {
	c := fig2(t)
	cases := []struct {
		proc, idx int
		want      []int
	}{
		{1, 1, []int{0, 1}}, // f1
		{1, 2, []int{0, 2}}, // f2
		{0, 1, []int{1, 2}}, // e1 = receive of f2's message
		{0, 2, []int{2, 2}}, // e2
		{0, 3, []int{3, 2}}, // e3
		{1, 3, []int{2, 3}}, // f3 = receive of e2's message
	}
	for _, tc := range cases {
		e := c.Event(tc.proc, tc.idx)
		for j, w := range tc.want {
			if e.Clock[j] != w {
				t.Errorf("%s clock = %v, want %v", e, e.Clock, tc.want)
				break
			}
		}
	}
}

func TestHappenedBefore(t *testing.T) {
	c := fig2(t)
	e1, e2, e3 := c.Event(0, 1), c.Event(0, 2), c.Event(0, 3)
	f1, f2, f3 := c.Event(1, 1), c.Event(1, 2), c.Event(1, 3)

	hb := []struct {
		a, b *Event
		want bool
	}{
		{e1, e2, true}, {e2, e3, true}, {e1, e3, true},
		{f1, f2, true}, {f2, f3, true},
		{f2, e1, true}, {f1, e1, true}, {f1, e3, true},
		{e2, f3, true}, {e1, f3, true},
		{e1, f1, false}, {e1, f2, false},
		{e3, f3, false}, {f3, e3, false},
		{e1, e1, false},
	}
	for _, tc := range hb {
		if got := c.HappenedBefore(tc.a, tc.b); got != tc.want {
			t.Errorf("HappenedBefore(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if !c.Concurrent(e3, f3) {
		t.Error("e3 and f3 should be concurrent")
	}
	if c.Concurrent(e1, e2) {
		t.Error("e1 and e2 are ordered, not concurrent")
	}
}

func TestConsistent(t *testing.T) {
	c := fig2(t)
	consistent := []Cut{
		{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}, {3, 2}, {2, 3}, {3, 3},
	}
	inconsistent := []Cut{
		{1, 0}, {1, 1}, {2, 0}, {3, 0}, {2, 1}, {3, 1}, // e1 needs f2
		{0, 3}, {1, 3}, // f3 needs e2
	}
	for _, cut := range consistent {
		if !c.Consistent(cut) {
			t.Errorf("cut %v should be consistent", cut)
		}
	}
	for _, cut := range inconsistent {
		if c.Consistent(cut) {
			t.Errorf("cut %v should be inconsistent", cut)
		}
	}
	// Out-of-range cuts are never consistent.
	for _, cut := range []Cut{{4, 0}, {-1, 0}, {0, 0, 0}, {0}} {
		if c.Consistent(cut) {
			t.Errorf("out-of-range cut %v reported consistent", cut)
		}
	}
}

func TestEnabledAndSuccessors(t *testing.T) {
	c := fig2(t)
	cases := []struct {
		cut  Cut
		want []int
	}{
		{Cut{0, 0}, []int{1}},    // only f1 enabled
		{Cut{0, 1}, []int{1}},    // only f2
		{Cut{0, 2}, []int{0, 1}}, // e1 and f3? f3 needs e2 → only e1... see below
		{Cut{2, 2}, []int{0, 1}}, // e3 and f3
		{Cut{3, 3}, nil},         // final
	}
	// Fix expectation for {0,2}: f3 requires e2, so only process 0 enabled.
	cases[2].want = []int{0}
	for _, tc := range cases {
		got := c.Enabled(tc.cut)
		if len(got) != len(tc.want) {
			t.Errorf("Enabled(%v) = %v, want %v", tc.cut, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Enabled(%v) = %v, want %v", tc.cut, got, tc.want)
				break
			}
		}
	}
	succ := c.Successors(Cut{2, 2})
	if len(succ) != 2 || !succ[0].Equal(Cut{3, 2}) || !succ[1].Equal(Cut{2, 3}) {
		t.Errorf("Successors(<2 2>) = %v", succ)
	}
}

func TestPredecessorsAndFrontier(t *testing.T) {
	c := fig2(t)
	pred := c.Predecessors(Cut{3, 3})
	if len(pred) != 2 || !pred[0].Equal(Cut{2, 3}) || !pred[1].Equal(Cut{3, 2}) {
		t.Errorf("Predecessors(E) = %v", pred)
	}
	// At <1 2>, e1 is maximal; f2 is not (f2 → e1).
	pred = c.Predecessors(Cut{1, 2})
	if len(pred) != 1 || !pred[0].Equal(Cut{0, 2}) {
		t.Errorf("Predecessors(<1 2>) = %v", pred)
	}
	fr := c.Frontier(Cut{1, 2})
	if len(fr) != 1 || fr[0].Label != "e1" {
		t.Errorf("Frontier(<1 2>) = %v", fr)
	}
	fr = c.Frontier(Cut{3, 3})
	if len(fr) != 2 || fr[0].Label != "e3" || fr[1].Label != "f3" {
		t.Errorf("Frontier(E) = %v", fr)
	}
	if got := c.Frontier(Cut{0, 0}); len(got) != 0 {
		t.Errorf("Frontier(∅) = %v, want empty", got)
	}
}

func TestDownSetAndUpSetComplement(t *testing.T) {
	c := fig2(t)
	e1 := c.Event(0, 1)
	if got := c.DownSet(e1); !got.Equal(Cut{1, 2}) {
		t.Errorf("DownSet(e1) = %v, want <1 2>", got)
	}
	// Meet-irreducibles by the Birkhoff formula.
	wantMI := map[string]Cut{
		"e1": {0, 2}, "e2": {1, 2}, "e3": {2, 3},
		"f1": {0, 0}, "f2": {0, 1}, "f3": {3, 2},
	}
	for i := 0; i < c.N(); i++ {
		for _, e := range c.Events(i) {
			got := c.UpSetComplement(e)
			want := wantMI[e.Label]
			if !got.Equal(want) {
				t.Errorf("UpSetComplement(%s) = %v, want %v", e.Label, got, want)
			}
			if !c.Consistent(got) {
				t.Errorf("UpSetComplement(%s) = %v is inconsistent", e.Label, got)
			}
		}
	}
}

// TestFig2Factorizations verifies the paper's Corollary 4 examples:
// X = ⊓{E1, E2, E3, F3} and Y = ⊓{E3, F3} where Ei = M(ei), Fi = M(fi).
func TestFig2Factorizations(t *testing.T) {
	c := fig2(t)
	mi := func(label string) Cut {
		for i := 0; i < c.N(); i++ {
			for _, e := range c.Events(i) {
				if e.Label == label {
					return c.UpSetComplement(e)
				}
			}
		}
		t.Fatalf("no event %q", label)
		return nil
	}
	x := Meet(Meet(mi("e1"), mi("e2")), Meet(mi("e3"), mi("f3")))
	if !x.Equal(Cut{0, 2}) {
		t.Errorf("X = %v, want <0 2>", x)
	}
	y := Meet(mi("e3"), mi("f3"))
	if !y.Equal(Cut{2, 2}) {
		t.Errorf("Y = %v, want <2 2>", y)
	}
}

func TestJoinMeetConsistency(t *testing.T) {
	c := fig2(t)
	cuts := []Cut{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}, {3, 2}, {2, 3}, {3, 3}}
	for _, a := range cuts {
		for _, b := range cuts {
			j, m := Join(a, b), Meet(a, b)
			if !c.Consistent(j) {
				t.Errorf("Join(%v, %v) = %v inconsistent", a, b, j)
			}
			if !c.Consistent(m) {
				t.Errorf("Meet(%v, %v) = %v inconsistent", a, b, m)
			}
			if !a.LessEq(j) || !b.LessEq(j) || !m.LessEq(a) || !m.LessEq(b) {
				t.Errorf("lattice bounds violated for %v, %v", a, b)
			}
		}
	}
}

func TestValues(t *testing.T) {
	b := NewBuilder(2)
	b.SetInitial(0, "x", 1)
	Set(b.Internal(0), "x", 3)
	Set(b.Internal(0), "y", 7)
	Set(b.Internal(1), "z", 5)
	c := b.MustBuild()

	cases := []struct {
		proc, state int
		name        string
		want        int
		ok          bool
	}{
		{0, 0, "x", 1, true},
		{0, 1, "x", 3, true},
		{0, 2, "x", 3, true}, // inherited across the y-assignment
		{0, 0, "y", 0, true},
		{0, 2, "y", 7, true},
		{1, 0, "z", 0, true},
		{1, 1, "z", 5, true},
		{0, 0, "z", 0, false}, // z undefined on P1
	}
	for _, tc := range cases {
		got, ok := c.Value(tc.proc, tc.state, tc.name)
		if got != tc.want || ok != tc.ok {
			t.Errorf("Value(%d, %d, %q) = (%d, %v), want (%d, %v)",
				tc.proc, tc.state, tc.name, got, ok, tc.want, tc.ok)
		}
	}
	if vars := c.Vars(0); len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars(0) = %v", vars)
	}
}

func TestChannels(t *testing.T) {
	c := fig2(t)
	cases := []struct {
		cut      Cut
		inFlight int
	}{
		{Cut{0, 0}, 0},
		{Cut{0, 1}, 0},
		{Cut{0, 2}, 1}, // f2's message sent, not received
		{Cut{1, 2}, 0},
		{Cut{2, 2}, 1}, // e2's message in flight
		{Cut{3, 2}, 1},
		{Cut{2, 3}, 0},
		{Cut{3, 3}, 0},
	}
	for _, tc := range cases {
		if got := c.InFlight(tc.cut); got != tc.inFlight {
			t.Errorf("InFlight(%v) = %d, want %d", tc.cut, got, tc.inFlight)
		}
		if got := c.ChannelsEmpty(tc.cut); got != (tc.inFlight == 0) {
			t.Errorf("ChannelsEmpty(%v) = %v", tc.cut, got)
		}
	}
}

func TestCompatibleStates(t *testing.T) {
	c := fig2(t)
	cases := []struct {
		i, k, j, kp int
		want        bool
	}{
		{0, 0, 1, 0, true},
		{0, 1, 1, 2, true},  // e1 done, f2 done
		{0, 1, 1, 1, false}, // e1 needs f2
		{0, 1, 1, 0, false},
		{0, 3, 1, 2, true},
		{0, 1, 1, 3, false}, // f3 needs e2
		{0, 2, 1, 3, true},
		{0, 0, 0, 0, true},  // same process, same state
		{0, 0, 0, 1, false}, // same process, different states
	}
	for _, tc := range cases {
		if got := c.CompatibleStates(tc.i, tc.k, tc.j, tc.kp); got != tc.want {
			t.Errorf("CompatibleStates(%d,%d,%d,%d) = %v, want %v",
				tc.i, tc.k, tc.j, tc.kp, got, tc.want)
		}
		// Symmetry.
		if got := c.CompatibleStates(tc.j, tc.kp, tc.i, tc.k); got != tc.want {
			t.Errorf("CompatibleStates(%d,%d,%d,%d) asymmetric", tc.j, tc.kp, tc.i, tc.k)
		}
	}
	// Compatibility must coincide with the existence of a consistent cut
	// exposing both states; check exhaustively on fig2.
	for k := 0; k <= 3; k++ {
		for kp := 0; kp <= 3; kp++ {
			exists := c.Consistent(Cut{k, kp})
			// The least cut with exactly (k, kp) exists iff {k,kp} is
			// consistent in the 2-process case.
			if got := c.CompatibleStates(0, k, 1, kp); got != exists {
				t.Errorf("CompatibleStates(0,%d,1,%d) = %v but consistent(%v) = %v",
					k, kp, got, Cut{k, kp}, exists)
			}
		}
	}
}

func TestPrefix(t *testing.T) {
	c := fig2(t)
	sub := c.Prefix(Cut{1, 2})
	if sub.N() != 2 || sub.Len(0) != 1 || sub.Len(1) != 2 {
		t.Fatalf("Prefix dims wrong: %d procs, lens %d/%d", sub.N(), sub.Len(0), sub.Len(1))
	}
	if sub.TotalEvents() != 3 {
		t.Errorf("TotalEvents = %d, want 3", sub.TotalEvents())
	}
	if !sub.Consistent(Cut{1, 2}) || sub.Consistent(Cut{1, 1}) {
		t.Error("sub-computation consistency diverges from original")
	}
	if !sub.ChannelsEmpty(Cut{1, 2}) {
		t.Error("channels should be empty at the full sub-computation")
	}
	if sub.ChannelsEmpty(Cut{0, 2}) {
		t.Error("f2's message should be in flight in the sub-computation")
	}
	// Prefix of an inconsistent cut panics.
	defer func() {
		if recover() == nil {
			t.Error("Prefix of inconsistent cut did not panic")
		}
	}()
	c.Prefix(Cut{1, 0})
}

func TestSomeLinearization(t *testing.T) {
	c := fig2(t)
	seq := c.SomeLinearization()
	if len(seq) != c.TotalEvents()+1 {
		t.Fatalf("linearization length = %d, want %d", len(seq), c.TotalEvents()+1)
	}
	if !seq[0].Equal(c.InitialCut()) || !seq[len(seq)-1].Equal(c.FinalCut()) {
		t.Error("linearization does not run from ∅ to E")
	}
	for i := 0; i+1 < len(seq); i++ {
		if !c.Consistent(seq[i]) {
			t.Errorf("cut %v in linearization is inconsistent", seq[i])
		}
		if seq[i].Size()+1 != seq[i+1].Size() || !seq[i].LessEq(seq[i+1]) {
			t.Errorf("step %v → %v is not a ▷ step", seq[i], seq[i+1])
		}
	}
}

func TestCutOps(t *testing.T) {
	a := Cut{1, 2, 3}
	if !a.Copy().Equal(a) {
		t.Error("Copy not equal")
	}
	cp := a.Copy()
	cp[0] = 9
	if a[0] != 1 {
		t.Error("Copy aliases")
	}
	if a.Size() != 6 {
		t.Errorf("Size = %d", a.Size())
	}
	if a.Equal(Cut{1, 2}) {
		t.Error("Equal across lengths")
	}
	if !Cut(nil).Equal(Cut{}) {
		t.Error("nil and empty cuts should be equal")
	}
	if a.String() != "<1 2 3>" {
		t.Errorf("String = %q", a.String())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	_, m := b.Send(0)
	b.Receive(1, m)
	b.Receive(1, m) // duplicate receive
	if _, err := b.Build(); err == nil {
		t.Error("duplicate receive not rejected")
	}

	b = NewBuilder(2)
	b.Receive(0, Msg{99})
	if _, err := b.Build(); err == nil {
		t.Error("unknown message not rejected")
	}

	b = NewBuilder(2)
	_, m = b.Send(0)
	b.Receive(0, m)
	if _, err := b.Build(); err == nil {
		t.Error("self-receive not rejected")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on broken builder did not panic")
		}
	}()
	b := NewBuilder(2)
	b.Receive(0, Msg{42})
	b.MustBuild()
}

func TestMessagesAccessors(t *testing.T) {
	c := fig2(t)
	ids := c.Messages()
	if len(ids) != 2 {
		t.Fatalf("Messages = %v", ids)
	}
	for _, id := range ids {
		s, r := c.SendOf(id), c.RecvOf(id)
		if s == nil || r == nil {
			t.Fatalf("message %d missing endpoints", id)
		}
		if !c.HappenedBefore(s, r) {
			t.Errorf("send %s not before receive %s", s, r)
		}
	}
}
