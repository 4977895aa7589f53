package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sim"
)

// runIngest compares the two ingest encodings head to head on the same
// workload: NDJSON with one frame (and one write) per event, versus the
// binary encoding batching events into length-prefixed frames — one
// write and one ack per batch, decoded straight into the columnar
// batch representation with pooled buffers and interned variable
// names, no per-event JSON on either side. Reported allocs/event is
// the whole loopback pipeline (client encode + server decode + apply),
// measured as the Mallocs delta across the streaming window.
func runIngest() {
	fmt.Println("ingest path: NDJSON frame-per-event vs binary batched frames (batch=64)")
	fmt.Printf("%8s %9s %12s %14s %12s %9s\n", "|E|", "encoding", "ingest", "events/s", "allocs/ev", "speedup")
	for _, events := range []int{1000, 5000, 20000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 21)
		feed := flatten(comp)
		base := bestIngest(comp, feed, server.EncodingNDJSON, 0)
		bin := bestIngest(comp, feed, server.EncodingBinary, 64)
		speedup := base.dt.Seconds() / bin.dt.Seconds()
		fmt.Printf("%8d %9s %12s %14.0f %12.1f %9s\n",
			events, "ndjson", base.dt.Round(time.Microsecond), base.rate, base.allocsPerEv, "")
		fmt.Printf("%8d %9s %12s %14.0f %12.1f %8.1fx\n",
			events, "binary", bin.dt.Round(time.Microsecond), bin.rate, bin.allocsPerEv, speedup)
		emit("ingest", "encoding", map[string]any{
			"events": events, "batch": 64,
			"ndjson_ns": base.dt.Nanoseconds(), "ndjson_events_per_sec": base.rate,
			"ndjson_allocs_per_event": base.allocsPerEv,
			"binary_ns":               bin.dt.Nanoseconds(), "binary_events_per_sec": bin.rate,
			"binary_allocs_per_event": bin.allocsPerEv,
			"speedup":                 speedup,
		})
	}
}

type ingestResult struct {
	dt          time.Duration
	rate        float64
	allocsPerEv float64
}

// bestIngest runs the measurement three times and keeps the fastest
// pass — the streaming window is short enough that a single GC pause
// or scheduling hiccup otherwise dominates the comparison.
func bestIngest(comp *computation.Computation, feed []wireEvent, enc string, batch int) ingestResult {
	best := measureIngest(comp, feed, enc, batch)
	for i := 0; i < 2; i++ {
		if r := measureIngest(comp, feed, enc, batch); r.dt < best.dt {
			best = r
		}
	}
	return best
}

// wireEvent is one pre-linearized step, so the measured window holds
// only the wire path — no linearization or event lookup inside it.
type wireEvent struct {
	proc int
	kind computation.Kind
	msg  int
	sets map[string]int
}

// setsOf returns e's assignments as the map the monitor and client take.
func setsOf(comp *computation.Computation, e *computation.Event) map[string]int {
	sets := make(map[string]int)
	for _, a := range comp.AppendAssignments(nil, e) {
		sets[a.Name] = a.Value
	}
	return sets
}

// flatten precomputes one linearization of comp as a flat replay list.
func flatten(comp *computation.Computation) []wireEvent {
	feed := make([]wireEvent, 0, comp.TotalEvents())
	for _, e := range comp.Linearization() {
		feed = append(feed, wireEvent{proc: e.Proc, kind: e.Kind, msg: e.Msg, sets: setsOf(comp, e)})
	}
	return feed
}

// measureIngest streams feed through one session with the given
// encoding, closing with the usual accounting check, and returns wall
// time, events/s, and allocs/event across the streaming window.
func measureIngest(comp *computation.Computation, feed []wireEvent, enc string, batch int) ingestResult {
	srv := server.New(server.Config{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln) //nolint:errcheck // closed by Shutdown
	pred := "conj(x0@P1 >= 2, x0@P2 >= 2, x0@P3 >= 2)"
	sess, err := client.Dial(ln.Addr().String(), client.Config{
		Processes: comp.N(),
		Watches:   []server.Watch{{Op: "EF", Pred: pred}},
		Encoding:  enc,
		BatchSize: batch,
	})
	if err != nil {
		panic(err)
	}
	go func() { // drain verdict pushes so the reader never stalls
		for {
			select {
			case <-sess.Verdicts():
			case <-sess.Done():
				return
			}
		}
	}()
	for p := 0; p < comp.N(); p++ {
		for _, name := range comp.Vars(p) {
			if v, _ := comp.Value(p, 0, name); v != 0 {
				sess.SetInitial(p, name, v)
			}
		}
	}

	// Collect once, then hold off the pacer for the short measured
	// window: the retained workload (the computation's events, clocks,
	// and assignment maps) is large relative to the window's churn, so
	// a mid-window GC cycle re-scanning it swamps the wire-path cost
	// being compared. Both encodings run under the same setting, and
	// allocs/event (a Mallocs delta) is unaffected.
	runtime.GC()
	oldGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(oldGC)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, e := range feed {
		switch e.kind {
		case computation.Internal:
			sess.Internal(e.proc, e.sets)
		case computation.Send:
			sess.SendMsg(e.proc, e.msg, e.sets)
		case computation.Receive:
			sess.Receive(e.proc, e.msg, e.sets)
		}
	}
	if _, err := sess.Snapshot("EF(" + pred + ")"); err != nil { // barrier: all applied
		panic(err)
	}
	dt := time.Since(start)
	runtime.ReadMemStats(&m1)

	gb, err := sess.Close()
	if err != nil {
		panic(err)
	}
	if gb.Events != comp.TotalEvents() {
		panic(fmt.Sprintf("server accounting: %d events (want %d)", gb.Events, comp.TotalEvents()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx) //nolint:errcheck
	cancel()
	return ingestResult{
		dt:          dt,
		rate:        float64(len(feed)) / dt.Seconds(),
		allocsPerEv: float64(m1.Mallocs-m0.Mallocs) / float64(len(feed)),
	}
}
