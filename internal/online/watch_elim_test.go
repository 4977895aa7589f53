package online

import (
	"testing"

	"repro/internal/predicate"
)

// wideEliminationRounds drives the EFWatch head-elimination worst case: a
// wide computation (procs many bystander processes with permanently-alive
// initial-state heads) where processes 0 and 1 ping-pong so that every
// round kills one head on each of them.
//
// Round r (events in observation order):
//
//	p0 internal flag=1   → candidate A_r   (kills C_{r-1} from round r-1)
//	p0 send     flag=0
//	p1 receive
//	p1 internal flag=1   → candidate C_r   (kills A_r: its start clock has
//	                        seen p0's send, the event ending state A_r)
//	p1 send     flag=0
//	p0 receive
//
// At every fixed point either queue 0 or queue 1 is empty, so the watch
// never fires during the rounds. A full pairwise rescan per pop pays
// Θ(procs²) comparisons to re-verify the bystander heads on every one of
// the ~2·rounds pops; in-place elimination re-compares only the changed
// heads, Θ(procs) per pop.
func wideEliminationRounds(m *Monitor, rounds int) {
	for r := 0; r < rounds; r++ {
		m.Internal(0, map[string]int{"flag": 1})
		id := m.Send(0, map[string]int{"flag": 0})
		if err := m.Receive(1, id, nil); err != nil {
			panic(err)
		}
		m.Internal(1, map[string]int{"flag": 1})
		id = m.Send(1, map[string]int{"flag": 0})
		if err := m.Receive(0, id, nil); err != nil {
			panic(err)
		}
	}
}

func wideWatch(m *Monitor, procs int) *EFWatch {
	// Bystanders registered FIRST: their permanently-alive heads sit at the
	// front of the scan order, which is exactly what made the full-rescan
	// algorithm quadratic per pop.
	locals := make([]predicate.VarCmp, 0, procs)
	for p := 2; p < procs; p++ {
		locals = append(locals, Cmp(p, "zero", "==", 0))
	}
	locals = append(locals, Cmp(0, "flag", "==", 1), Cmp(1, "flag", "==", 1))
	return m.WatchEF(locals...)
}

func TestEFWatchWideEliminationCost(t *testing.T) {
	const procs, rounds = 40, 200
	m := NewMonitor(procs)
	w := wideWatch(m, procs)
	wideEliminationRounds(m, rounds)
	if w.Fired() {
		t.Fatalf("watch fired during elimination rounds; queues 0/1 should alternate empty")
	}
	// Per-event cost bound: seeding verifies the procs-2 bystander heads
	// pairwise once (≈ procs² comparisons), then each round's two
	// head-creating events re-compare only the new head, ≈ procs
	// comparisons each. A rescan-per-pop implementation pays
	// ≈ 2·rounds·procs² ≈ 640000 comparisons on this scenario.
	limit := procs*procs + 4*rounds*procs // 33600, ~19× below the rescan cost
	if w.cur.Comparisons() > limit {
		t.Fatalf("head elimination performed %d comparisons, want <= %d (per-pop cost must stay O(procs))", w.cur.Comparisons(), limit)
	}
	t.Logf("elimination comparisons: %d (limit %d)", w.cur.Comparisons(), limit)

	// Correctness at the end of the churn: let both ping-pong processes
	// hold concurrently and the watch must still fire with the least cut.
	m.Internal(0, map[string]int{"flag": 1}) // A_final kills C_{rounds-1}
	if w.Fired() {
		t.Fatalf("watch fired before process 1 satisfied its conjunct")
	}
	m.Internal(1, map[string]int{"flag": 1})
	if !w.Fired() {
		t.Fatalf("watch did not fire once all conjuncts held compatibly")
	}
	cut := w.Cut()
	want := 3*rounds + 1 // 3 events per round plus the final internal
	if cut[0] != want || cut[1] != want {
		t.Fatalf("fired cut = %v, want %d events on processes 0 and 1", cut, want)
	}
	for p := 2; p < procs; p++ {
		if cut[p] != 0 {
			t.Fatalf("fired cut = %v, want 0 events on bystander %d", cut, p)
		}
	}
}

// TestEFWatchEliminationOrderInsensitive re-runs the ping-pong with the
// constrained processes registered before the bystanders — the worklist
// must reach the same verdict and cut regardless of scan order.
func TestEFWatchEliminationOrderInsensitive(t *testing.T) {
	const procs, rounds = 8, 25
	m := NewMonitor(procs)
	locals := []predicate.VarCmp{Cmp(0, "flag", "==", 1), Cmp(1, "flag", "==", 1)}
	for p := 2; p < procs; p++ {
		locals = append(locals, Cmp(p, "zero", "==", 0))
	}
	w := m.WatchEF(locals...)
	wideEliminationRounds(m, rounds)
	if w.Fired() {
		t.Fatalf("watch fired during elimination rounds")
	}
	m.Internal(0, map[string]int{"flag": 1})
	m.Internal(1, map[string]int{"flag": 1})
	if !w.Fired() {
		t.Fatalf("watch did not fire")
	}
	want := 3*rounds + 1
	if cut := w.Cut(); cut[0] != want || cut[1] != want {
		t.Fatalf("fired cut = %v, want %d on processes 0 and 1", cut, want)
	}
}
