package server_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/spanhb"
	"repro/internal/vclock"
)

// collectSpans runs one server with a ring-backed tracer, drives it with
// drive, shuts it down (the barrier that guarantees every span has
// ended), and returns the completed spans.
func collectSpans(t *testing.T, cfg server.Config, drive func(addr string)) []obs.SpanRecord {
	t.Helper()
	ring := obs.NewSpanRing(256)
	cfg.Tracer = obs.NewTracer(nil).Mirror(ring)
	cfg.Registry = obs.NewRegistry()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // closed by Shutdown
	drive(ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	spans, _ := ring.Snapshot()
	return spans
}

// driveOneFrame runs the minimal fully-serialized session: one event
// that latches an EF verdict (awaited, so the monitor-side spans exist
// before the next frame is sent), one snapshot barrier, then bye. Every
// span allocation is ordered by this dialog, so span ids are a golden
// sequence.
func driveOneFrame(t *testing.T) func(addr string) {
	return func(addr string) {
		sess, err := client.Dial(addr, client.Config{
			Processes: 1,
			Watches:   []server.Watch{{Op: "EF", Pred: "conj(x@P1 == 1)"}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		sess.Internal(0, map[string]int{"x": 1})
		select {
		case <-sess.Verdicts():
		case <-time.After(5 * time.Second):
			t.Error("verdict never latched")
		}
		if _, err := sess.Snapshot("EF(conj(x@P1 == 1))"); err != nil {
			t.Error(err)
		}
		if _, err := sess.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestSpanPropagationGolden pins the span tree of a single frame's full
// server traversal: names in allocation order, parent links, trace
// identity, and stage completion order.
func TestSpanPropagationGolden(t *testing.T) {
	// Snapshot queries run on the session's monitor goroutine, so the
	// server has one detection worker.
	t.Run("workers=1", func(t *testing.T) {
		spans := collectSpans(t, server.Config{}, driveOneFrame(t))

		// Span ids are allocated from a per-tracer counter, so sorting
		// by id recovers allocation order regardless of end order.
		byAlloc := append([]obs.SpanRecord(nil), spans...)
		sort.Slice(byAlloc, func(a, b int) bool { return byAlloc[a].ID < byAlloc[b].ID })
		var names []string
		for _, r := range byAlloc {
			names = append(names, r.Span)
		}
		want := []string{
			"session", "accept",
			"decode", "frame", "enqueue", "apply", "verdict", // the event
			"decode", "frame", "enqueue", "apply", // the snapshot
			"decode", // the bye
		}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Fatalf("allocation order:\n got %v\nwant %v", names, want)
		}

		// One trace; parent links form the expected tree.
		byID := make(map[string]obs.SpanRecord, len(spans))
		for _, r := range spans {
			byID[r.ID] = r
		}
		session := byAlloc[0]
		if session.Parent != "" {
			t.Errorf("session span has parent %q", session.Parent)
		}
		for _, r := range spans {
			if r.Trace != session.Trace {
				t.Errorf("span %s in trace %q, want %q", r.Span, r.Trace, session.Trace)
			}
		}
		parentName := func(r obs.SpanRecord) string { return byID[r.Parent].Span }
		wantParent := map[string]string{
			"accept": "session", "decode": "session", "frame": "session",
			"enqueue": "frame", "apply": "frame", "verdict": "frame",
		}
		for _, r := range spans {
			if r.Span == "session" {
				continue
			}
			if got := parentName(r); got != wantParent[r.Span] {
				t.Errorf("%s span parented under %q, want %q", r.Span, got, wantParent[r.Span])
			}
		}

		// The event frame's stages complete in pipeline order: enqueue
		// before verdict before apply before the frame span itself
		// (apply ends after the verdicts it latched; the frame span
		// closes last). Ring order is end order.
		idx := map[string]int{}
		frameID := byAlloc[3].ID
		for i, r := range spans {
			if r.ID == frameID || r.Parent == frameID {
				idx[r.Span] = i
			}
		}
		if !(idx["enqueue"] < idx["verdict"] && idx["verdict"] < idx["apply"] && idx["apply"] < idx["frame"]) {
			t.Errorf("stage completion order wrong: %v", idx)
		}

		// The verdict span carries the watch identity.
		verdict := byAlloc[6]
		if verdict.Attrs["op"] != "EF" || verdict.Attrs["service"] != "monitor" {
			t.Errorf("verdict attrs = %v", verdict.Attrs)
		}
	})
}

// TestDogfoodSpansRoundTrip closes the loop: the server's own pipeline
// spans are lowered back onto the happened-before model and the
// detection algorithms run over them. The lowered vector clocks must
// satisfy the vclock consistency oracle, and temporal predicates about
// the server's own causality must agree between offline detection and
// an online monitor replay.
func TestDogfoodSpansRoundTrip(t *testing.T) {
	recs := collectSpans(t, server.Config{}, driveOneFrame(t))
	spans := spanhb.FromObs(recs)
	if len(spans) != len(recs) {
		t.Fatalf("FromObs kept %d of %d spans", len(spans), len(recs))
	}
	// Persist attributes: latched facts must stay visible to AG.
	r, err := spanhb.Lower(spans, spanhb.Options{PersistAttrs: true})
	if err != nil {
		t.Fatal(err)
	}
	proc := func(svc string) int {
		for i, s := range r.Services {
			if s == svc {
				return i
			}
		}
		t.Fatalf("no service %q in %v", svc, r.Services)
		return -1
	}
	mon, tr := proc("monitor"), proc("transport")
	if proc("session") < 0 {
		t.Fatal("session service missing")
	}

	// The lowered clocks are real vector clocks: valid per-process
	// timelines, and every message sent before it is received.
	comp := r.Comp
	for i := 0; i < comp.N(); i++ {
		clocks := make([]vclock.VC, 0, comp.Len(i))
		for _, e := range comp.Events(i) {
			clocks = append(clocks, e.Clock)
		}
		if err := vclock.CheckTimeline(i, clocks); err != nil {
			t.Errorf("%s: %v", r.Services[i], err)
		}
	}
	for _, m := range comp.Messages() {
		s, rcv := comp.SendOf(m), comp.RecvOf(m)
		if rcv == nil || !s.Clock.Less(rcv.Clock) {
			t.Errorf("message %d: causality broken (%v → %v)", m, s.Clock, rcv)
		}
	}

	// Causality of the server's own pipeline, as Table 1 predicates.
	// "The monitor never works before the transport has delivered
	// something": provable only because parent/child span edges became
	// messages — without them the concurrent cuts would violate it.
	detect := func(src string) bool {
		t.Helper()
		res, err := core.Detect(comp, ctl.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return res.Holds
	}
	causal := fmt.Sprintf("AG(disj(done@P%d == 0, started@P%d >= 1))", mon+1, tr+1)
	if !detect(causal) {
		t.Errorf("%s should hold: monitor work is caused by transport frames", causal)
	}
	if detect(fmt.Sprintf("EF(conj(done@P%d >= 1, started@P%d == 0))", mon+1, tr+1)) {
		t.Error("found a cut where the monitor finished work before any transport frame existed")
	}

	// Offline and online must agree (the acceptance criterion). The
	// verdict span runs inside the apply span, so monitor inflight
	// reaches 2 and never exceeds it.
	efSrc := fmt.Sprintf("inflight@P%d >= 2", mon+1)
	agOK := fmt.Sprintf("inflight@P%d <= 2", mon+1)
	agBad := fmt.Sprintf("inflight@P%d <= 0", mon+1)
	offEF := detect("EF(conj(" + efSrc + "))")
	offOK := detect("AG(conj(" + agOK + "))")
	offBad := detect("AG(conj(" + agBad + "))")

	m := online.NewMonitor(comp.N())
	watch := func(op, src string) any {
		t.Helper()
		locals, err := online.ParseConj(src)
		if err != nil {
			t.Fatal(err)
		}
		if op == "EF" {
			return m.WatchEF(locals...)
		}
		return m.WatchAG(locals...)
	}
	ef := watch("EF", efSrc).(*online.EFWatch)
	ok := watch("AG", agOK).(*online.AGWatch)
	bad := watch("AG", agBad).(*online.AGWatch)

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
					t.Fatal(err)
				}
			}
			break
		}
	}
	if ef.Fired() != offEF {
		t.Errorf("EF(%s): online %v, offline %v", efSrc, ef.Fired(), offEF)
	}
	if !ok.Violated() != offOK {
		t.Errorf("AG(%s): online held=%v, offline %v", agOK, !ok.Violated(), offOK)
	}
	if !bad.Violated() != offBad {
		t.Errorf("AG(%s): online held=%v, offline %v", agBad, !bad.Violated(), offBad)
	}
	if !offEF || !offOK || offBad {
		t.Errorf("verdict pattern unexpected: EF=%v AG(ok)=%v AG(bad)=%v", offEF, offOK, offBad)
	}
}

// setsOf returns e's assignments as the map the monitor takes.
func setsOf(comp *computation.Computation, e *computation.Event) map[string]int {
	sets := make(map[string]int)
	for _, a := range comp.AppendAssignments(nil, e) {
		sets[a.Name] = a.Value
	}
	return sets
}
