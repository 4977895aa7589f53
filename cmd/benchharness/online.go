package main

import (
	"fmt"
	"time"

	"repro/internal/computation"
	"repro/internal/online"
	"repro/internal/sim"
)

// runOnline measures the on-line detectors (the paper's §8 future work):
// detection latency — how many events after the satisfying cut first
// exists does the verdict fire (always 0 for the queue algorithm: the
// verdict is immediate) — and per-event overhead across trace lengths.
func runOnline() {
	fmt.Println("weak-conjunctive EF watch (Garg–Waldecker queues), fed one event at a time")
	fmt.Printf("%8s %10s %14s %16s\n", "|E|", "fired", "events@fire", "ingest time")
	for _, events := range []int{200, 1000, 5000, 20000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 21)
		m := online.NewMonitor(comp.N())
		w := m.WatchEF(
			online.Cmp(0, "x0", ">=", 2),
			online.Cmp(1, "x0", ">=", 2),
			online.Cmp(2, "x0", ">=", 2),
		)
		start := time.Now()
		firedAt := -1
		feedAll(comp, m, func(seen int) {
			if firedAt < 0 && w.Fired() {
				firedAt = seen
			}
		})
		dt := time.Since(start)
		fmt.Printf("%8d %10v %14d %16s\n", events, w.Fired(), firedAt, dt.Round(time.Microsecond))
		emit("online", "ef-watch", map[string]any{
			"events": events, "fired": w.Fired(), "events_at_fire": firedAt,
			"ingest_ns": dt.Nanoseconds(),
		})
	}
	fmt.Println("\nonline AG violation watch: verdict at the first bad local state")
	comp := sim.BuggyMutex(3, 1, 0)
	m := online.NewMonitor(comp.N())
	ag := m.WatchAG(online.Cmp(0, "crit", "<=", 0)) // P1 must never be critical (will fail)
	violatedAt := -1
	feedAll(comp, m, func(seen int) {
		if violatedAt < 0 && ag.Violated() {
			violatedAt = seen
		}
	})
	cut, local := ag.Counterexample()
	fmt.Printf("violation of %q detected after %d/%d events at cut %v\n",
		local, violatedAt, comp.TotalEvents(), cut)
	emit("online", "ag-watch", map[string]any{
		"conjunct": local, "events_at_violation": violatedAt, "events": comp.TotalEvents(),
	})
}

func feedAll(comp *computation.Computation, m *online.Monitor, step func(seen int)) {
	ids := make(map[int]int)
	seen := 0
	for _, e := range comp.Linearization() {
		p, sets := e.Proc, setsOf(comp, e)
		switch e.Kind {
		case computation.Internal:
			m.Internal(p, sets)
		case computation.Send:
			ids[e.Msg] = m.Send(p, sets)
		case computation.Receive:
			if err := m.Receive(p, ids[e.Msg], sets); err != nil {
				panic(err)
			}
		}
		seen++
		if step != nil {
			step(seen)
		}
	}
}
