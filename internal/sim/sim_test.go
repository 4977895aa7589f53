package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/lattice"
	"repro/internal/predicate"
)

func TestRandomDeterministic(t *testing.T) {
	cfg := DefaultRandomConfig(3, 20)
	a := Random(cfg, 7)
	b := Random(cfg, 7)
	if a.TotalEvents() != b.TotalEvents() {
		t.Fatal("same seed, different event counts")
	}
	for i := 0; i < a.N(); i++ {
		for k := 1; k <= a.Len(i); k++ {
			if a.Event(i, k).Kind != b.Event(i, k).Kind || !a.Event(i, k).Clock.Equal(b.Event(i, k).Clock) {
				t.Fatalf("same seed, different event (%d,%d)", i, k)
			}
		}
	}
	c := Random(cfg, 8)
	same := a.TotalEvents() == c.TotalEvents()
	if same {
		for i := 0; i < a.N() && same; i++ {
			same = a.Len(i) == c.Len(i)
		}
	}
	if same {
		// Extremely unlikely the full structure matches too; spot check.
		diff := false
		for i := 0; i < a.N() && !diff; i++ {
			for k := 1; k <= a.Len(i) && !diff; k++ {
				if a.Event(i, k).Kind != c.Event(i, k).Kind {
					diff = true
				}
			}
		}
		if !diff {
			t.Log("seeds 7 and 8 produced structurally identical computations (possible but suspicious)")
		}
	}
}

func TestRandomRespectsConfig(t *testing.T) {
	cfg := DefaultRandomConfig(4, 50)
	comp := Random(cfg, 1)
	if comp.N() != 4 {
		t.Errorf("procs = %d", comp.N())
	}
	if comp.TotalEvents() != 50 {
		t.Errorf("events = %d", comp.TotalEvents())
	}
	// Every receive matches a send.
	for _, id := range comp.Messages() {
		if comp.SendOf(id) == nil {
			t.Errorf("message %d has no send", id)
		}
		if r := comp.RecvOf(id); r != nil {
			if !comp.HappenedBefore(comp.SendOf(id), r) {
				t.Errorf("message %d receive not after send", id)
			}
		}
	}
}

func TestQuickRandomBuildsValidComputations(t *testing.T) {
	f := func(seed int64) bool {
		comp := Random(RandomConfig{Procs: 3, Events: 15, SendProb: 0.5, RecvProb: 0.5, Vars: 1, ValRange: 2}, seed)
		// The final cut must be consistent and the linearization total.
		return comp.Consistent(comp.FinalCut()) && len(comp.SomeLinearization()) == comp.TotalEvents()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTokenRingMutexSafety(t *testing.T) {
	comp := TokenRingMutex(3, 2)
	l, err := lattice.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	// No two processes critical at once, verified exhaustively.
	for _, cut := range l.Cuts() {
		critical := 0
		for p := 0; p < comp.N(); p++ {
			if v, _ := comp.Value(p, cut[p], "crit"); v == 1 {
				critical++
			}
		}
		if critical > 1 {
			t.Fatalf("cut %v has %d processes critical", cut, critical)
		}
	}
	// Channels end empty.
	if !comp.ChannelsEmpty(comp.FinalCut()) {
		t.Error("token left in flight at the end")
	}
}

func TestBuggyMutexViolation(t *testing.T) {
	comp := BuggyMutex(3, 1, 0)
	l, err := lattice.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for _, cut := range l.Cuts() {
		critical := 0
		for p := 0; p < comp.N(); p++ {
			if v, _ := comp.Value(p, cut[p], "crit"); v == 1 {
				critical++
			}
		}
		if critical > 1 {
			violated = true
			break
		}
	}
	if !violated {
		t.Fatal("BuggyMutex produced no mutual exclusion violation")
	}
}

func TestLeaderElectionAgreement(t *testing.T) {
	n := 4
	comp := LeaderElection(n)
	final := comp.FinalCut()
	for p := 0; p < n; p++ {
		if v, _ := comp.Value(p, final[p], "leader"); v != n {
			t.Errorf("P%d ends with leader = %d, want %d", p+1, v, n)
		}
		if v, _ := comp.Value(p, final[p], "done"); v != 1 {
			t.Errorf("P%d not done", p+1)
		}
	}
	// Leader values are only ever 0 (undecided) or n (the maximum).
	for p := 0; p < n; p++ {
		for k := 0; k <= comp.Len(p); k++ {
			if v, _ := comp.Value(p, k, "leader"); v != 0 && v != n {
				t.Errorf("P%d state %d has leader = %d", p+1, k, v)
			}
		}
	}
}

func TestProducerConsumerDrains(t *testing.T) {
	comp := ProducerConsumer(2, 3)
	if !comp.ChannelsEmpty(comp.FinalCut()) {
		t.Error("items left in flight")
	}
	final := comp.FinalCut()
	if v, _ := comp.Value(0, final[0], "consumed"); v != 6 {
		t.Errorf("consumed = %d, want 6", v)
	}
	if v, _ := comp.Value(0, final[0], "drained"); v != 1 {
		t.Error("consumer never drained")
	}
}

func TestBarrierPhases(t *testing.T) {
	comp := Barrier(3, 2)
	final := comp.FinalCut()
	for p := 0; p < comp.N(); p++ {
		if v, _ := comp.Value(p, final[p], "phase"); v != 2 {
			t.Errorf("P%d final phase = %d, want 2", p+1, v)
		}
	}
	// Phase skew ≤ 1 at every consistent cut, exhaustively.
	l, err := lattice.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range l.Cuts() {
		lo, hi := 1<<30, -1
		for p := 0; p < comp.N(); p++ {
			v, _ := comp.Value(p, cut[p], "phase")
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 1 {
			t.Fatalf("cut %v has phase skew %d", cut, hi-lo)
		}
	}
}

func TestTwoPhaseCommit(t *testing.T) {
	commit := TwoPhaseCommit(3, 0) // nobody aborts
	final := commit.FinalCut()
	for p := 0; p <= 3; p++ {
		if v, _ := commit.Value(p, final[p], "decided"); v != 1 {
			t.Errorf("commit run: P%d decided = %d", p+1, v)
		}
	}
	abort := TwoPhaseCommit(3, 2) // participant 2 aborts
	final = abort.FinalCut()
	for p := 0; p <= 3; p++ {
		if v, _ := abort.Value(p, final[p], "decided"); v != 2 {
			t.Errorf("abort run: P%d decided = %d", p+1, v)
		}
	}
	// Agreement invariant: never one committed while another aborted.
	l, err := lattice.Build(abort)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range l.Cuts() {
		c1, c2 := false, false
		for p := 0; p <= 3; p++ {
			v, _ := abort.Value(p, cut[p], "decided")
			c1 = c1 || v == 1
			c2 = c2 || v == 2
		}
		if c1 && c2 {
			t.Fatalf("cut %v mixes commit and abort decisions", cut)
		}
	}
}

func TestChainIsTotalOrder(t *testing.T) {
	comp := Chain(3, 10)
	l, err := lattice.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != comp.TotalEvents()+1 {
		t.Errorf("chain lattice has %d cuts, want %d (a single path)", l.Size(), comp.TotalEvents()+1)
	}
}

func TestGridLatticeSize(t *testing.T) {
	comp := Grid(3, 2)
	l, err := lattice.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 27 { // (k+1)^n
		t.Errorf("grid lattice has %d cuts, want 27", l.Size())
	}
}

func TestFig2MatchesPaper(t *testing.T) {
	comp := Fig2()
	l, err := lattice.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 8 {
		t.Errorf("Fig 2 lattice has %d cuts, want 8", l.Size())
	}
	if err := l.VerifyBirkhoff(); err != nil {
		t.Errorf("Birkhoff verification failed: %v", err)
	}
}

func TestFig4Invariants(t *testing.T) {
	comp := Fig4()
	if comp.TotalEvents() != 5 {
		t.Errorf("Fig 4 has %d events, want 5", comp.TotalEvents())
	}
	q := predicate.AndLinear{Ps: []predicate.Linear{
		predicate.ChannelsEmpty{},
		predicate.Conj(predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.GT, K: 1}),
	}}
	// x@P1 > 1 holds after e1, but f1's message to g1 is still in flight.
	// (The cut must be consistent: e1 receives f2's message.)
	if q.Eval(comp, computation.Cut{1, 2, 0}) {
		t.Error("q must not hold before g1 (channel to g1 in flight)")
	}
	if !q.Eval(comp, computation.Cut{1, 2, 1}) {
		t.Error("q must hold at I_q")
	}
	if Describe(comp) == "" {
		t.Error("empty Describe")
	}
}
