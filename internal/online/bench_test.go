package online

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// watchApplySession is the serve-paced session shape in process: n
// processes each counting their events in "step", 64 EF watches whose
// thresholds are staggered over the session (so the pending set drains
// evenly) and one AG that never fails, on a bounded monitor, the
// assignments fed as batch rows. One process per round sends to its
// neighbour-but-one, which receives in the next round.
func watchApplySession(tb testing.TB, n, efs, rounds int) {
	m := NewBoundedMonitor(n)
	for j := 1; j <= efs; j++ {
		locals := make([]predicate.VarCmp, n)
		for p := range locals {
			locals[p] = Cmp(p, "step", ">=", j*rounds/(efs+1))
		}
		m.WatchEF(locals...)
	}
	inv := make([]predicate.VarCmp, n)
	for p := range inv {
		inv[p] = Cmp(p, "step", ">=", 0)
	}
	ag := m.WatchAG(inv...)
	row := []pir.VarSet{{Name: "step"}}
	// Round r's message has id r+1 and is received in round r+1.
	for r := 0; r < rounds; r++ {
		row[0].Val = r + 1
		for p := 0; p < n; p++ {
			kind, msg := pir.EvInternal, 0
			switch {
			case p == r%n:
				kind, msg = pir.EvSend, r+1
			case p == (r+n-2)%n && r > 0:
				kind, msg = pir.EvReceive, r
			}
			if err := m.Apply(p, kind, msg, row); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if m.Latched() != efs || ag.Violated() || m.Retained() != 0 {
		tb.Fatalf("latched %d of %d EF watches, AG violated %v, retained %d", m.Latched(), efs, ag.Violated(), m.Retained())
	}
}

// BenchmarkWatchApply measures what one event costs a bounded monitor
// carrying the serve-paced watch load (n=4, 64 staggered EF + 1 AG).
func BenchmarkWatchApply(b *testing.B) {
	const n, efs, rounds = 4, 64, 2500
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		watchApplySession(b, n, efs, rounds)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	events := float64(b.N * n * rounds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/events, "allocs/event")
}

// BenchmarkMonitorThroughput measures event-ingestion cost with an active
// EF watch — the online algorithm's per-event overhead.
func BenchmarkMonitorThroughput(b *testing.B) {
	for _, events := range []int{500, 2000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 3)
		b.Run(fmt.Sprintf("E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMonitor(comp.N())
				m.WatchEF(
					Cmp(0, "x0", ">=", 3), // never fires: values stay < 3... may fire; cost is what matters
					Cmp(1, "x0", ">=", 3),
				)
				feed(b, comp, m)
			}
		})
	}
}

// BenchmarkEFWatchWide measures head-elimination cost on the wide
// ping-pong computation (many bystander heads, two churning processes) —
// the scenario where a full pairwise rescan per pop is quadratic in the
// process count while the in-place worklist stays linear.
func BenchmarkEFWatchWide(b *testing.B) {
	for _, procs := range []int{8, 40} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			const rounds = 200
			for i := 0; i < b.N; i++ {
				m := NewMonitor(procs)
				w := wideWatch(m, procs)
				wideEliminationRounds(m, rounds)
				if w.Fired() {
					b.Fatal("watch fired mid-churn")
				}
			}
			b.ReportMetric(float64(6*rounds), "events/op")
		})
	}
}

// BenchmarkSnapshot measures the cost of the offline bridge.
func BenchmarkSnapshot(b *testing.B) {
	comp := sim.Random(sim.DefaultRandomConfig(4, 2000), 3)
	m := NewMonitor(comp.N())
	feed(b, comp, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Snapshot()
	}
}

func feed(tb testing.TB, comp *computation.Computation, m *Monitor) {
	tb.Helper()
	ids := make(map[int]int)
	seq := comp.SomeLinearization()
	for s := 1; s < len(seq); s++ {
		prev, cur := seq[s-1], seq[s]
		for p := range cur {
			if cur[p] <= prev[p] {
				continue
			}
			e := comp.Event(p, cur[p])
			sets := setsOf(comp, e)
			switch e.Kind {
			case computation.Internal:
				m.Internal(p, sets)
			case computation.Send:
				ids[e.Msg] = m.Send(p, sets)
			case computation.Receive:
				if err := m.Receive(p, ids[e.Msg], sets); err != nil {
					tb.Fatal(err)
				}
			}
			break
		}
	}
}
