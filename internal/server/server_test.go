package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// startServer runs a server on a loopback TCP listener and returns its
// address. Cleanup shuts the server down and fails the test if the drain
// does not finish.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // closed by Shutdown
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// step is one scripted event, applied identically to the wire session
// and to offline prefix computations.
type step struct {
	proc int // 0-based
	kind computation.Kind
	msg  int // wire message id for send/receive
	sets map[string]int
}

// script is the deterministic 3-process computation each test session
// streams. P1 sets x=1 and passes a token to P2, which sets x=1 and
// passes it to P3; P3 sets x=1 on receipt, then steps x to 1+extra.
// With extra=1 the AG invariant conj(x@P3 <= 1) is violated at event 6.
func script(extra int) []step {
	return []step{
		{proc: 0, kind: computation.Internal, sets: map[string]int{"x": 1}},
		{proc: 0, kind: computation.Send, msg: 1},
		{proc: 1, kind: computation.Receive, msg: 1, sets: map[string]int{"x": 1}},
		{proc: 1, kind: computation.Send, msg: 2},
		{proc: 2, kind: computation.Receive, msg: 2, sets: map[string]int{"x": 1}},
		{proc: 2, kind: computation.Internal, sets: map[string]int{"x": 1 + extra}},
		{proc: 0, kind: computation.Internal, sets: map[string]int{"x": 2}},
	}
}

// buildPrefix constructs the computation of the first k scripted events —
// the offline ground truth for the verdict latched at event k.
func buildPrefix(t *testing.T, steps []step, k int) *computation.Computation {
	t.Helper()
	b := computation.NewBuilder(3)
	for p := 0; p < 3; p++ {
		b.SetInitial(p, "x", 0)
	}
	msgs := make(map[int]computation.Msg)
	for _, s := range steps[:k] {
		var e *computation.Event
		switch s.kind {
		case computation.Internal:
			e = b.Internal(s.proc)
		case computation.Send:
			var m computation.Msg
			e, m = b.Send(s.proc)
			msgs[s.msg] = m
		case computation.Receive:
			e = b.Receive(s.proc, msgs[s.msg])
		}
		for name, v := range s.sets {
			computation.Set(e, name, v)
		}
	}
	comp, err := b.Build()
	if err != nil {
		t.Fatalf("prefix %d: %v", k, err)
	}
	return comp
}

// stream replays the script into a wire session.
func stream(sess *client.Session, steps []step) {
	for p := 0; p < 3; p++ {
		sess.SetInitial(p, "x", 0)
	}
	for _, s := range steps {
		switch s.kind {
		case computation.Internal:
			sess.Internal(s.proc, s.sets)
		case computation.Send:
			sess.SendMsg(s.proc, s.msg, s.sets)
		case computation.Receive:
			sess.Receive(s.proc, s.msg, s.sets)
		}
	}
}

const (
	efPred     = "conj(x@P1 == 1, x@P2 == 1, x@P3 == 1)"
	agPred     = "conj(x@P3 <= 1)"
	stablePred = "conj(x@P3 >= 1)"
)

// TestEndToEndConcurrentSessions is the acceptance test: many concurrent
// client sessions against one server, each asserting that (a) streamed
// verdicts and snapshot answers match offline core.Detect on the same
// computation, and (b) each verdict frame latches at the exact
// determining prefix — the offline verdict flips between the frame's
// Event and Event-1.
func TestEndToEndConcurrentSessions(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	const sessions = 10

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			extra := i % 2 // odd sessions violate the AG invariant
			steps := script(extra)
			full := buildPrefix(t, steps, len(steps))

			sess, err := client.Dial(addr, client.Config{
				Processes: 3,
				Watches: []server.Watch{
					{Op: "EF", Pred: efPred},
					{Op: "AG", Pred: agPred},
					{Op: "STABLE", Pred: stablePred},
				},
			})
			if err != nil {
				fail("session %d: %v", i, err)
				return
			}
			stream(sess, steps)

			// Snapshot answers must match offline detection on the local
			// build of the same computation (acceptance criterion a).
			for _, formula := range []string{
				"EF(" + efPred + ")",
				"AG(" + agPred + ")",
				"EF(x@P1 == 2 && x@P3 == 1)",
				"AG(disj(x@P1 <= 2, x@P3 <= 2))",
			} {
				fr, err := sess.Snapshot(formula)
				if err != nil {
					fail("session %d: snapshot %s: %v", i, formula, err)
					return
				}
				want, err := core.Detect(full, ctl.MustParse(formula))
				if err != nil {
					fail("session %d: offline %s: %v", i, formula, err)
					return
				}
				if *fr.Holds != want.Holds {
					fail("session %d: snapshot %s = %v, offline says %v", i, formula, *fr.Holds, want.Holds)
					return
				}
				if fr.Event != len(steps) {
					fail("session %d: snapshot at prefix %d, want %d", i, fr.Event, len(steps))
					return
				}
			}

			gb, err := sess.Close()
			if err != nil {
				fail("session %d: close: %v", i, err)
				return
			}
			if gb.Events != len(steps) || gb.Dropped != 0 {
				fail("session %d: goodbye %d events (%d dropped), want %d (0)", i, gb.Events, gb.Dropped, len(steps))
				return
			}

			verdicts := make(map[int]server.ServerFrame)
			for _, fr := range sess.Latched() {
				if fr.Type == server.FrameError {
					fail("session %d: unexpected error frame: %s", i, fr.Error)
					return
				}
				if fr.Type != server.FrameVerdict {
					continue
				}
				if _, dup := verdicts[fr.Watch]; dup {
					fail("session %d: watch %d latched twice", i, fr.Watch)
					return
				}
				verdicts[fr.Watch] = fr
			}

			// Watch 0 (EF) and watch 1 (AG): presence must match offline
			// detection on the full computation, and the latch point must
			// be the exact determining prefix (criterion b).
			efOffline, _ := core.Detect(full, ctl.MustParse("EF("+efPred+")"))
			fr, fired := verdicts[0]
			if fired != efOffline.Holds {
				fail("session %d: EF fired=%v, offline=%v", i, fired, efOffline.Holds)
				return
			}
			if fired {
				if err := exactPrefix(t, steps, fr.Event, "EF("+efPred+")", true); err != nil {
					fail("session %d: EF latch: %v", i, err)
					return
				}
			}
			agOffline, _ := core.Detect(full, ctl.MustParse("AG("+agPred+")"))
			fr, violated := verdicts[1]
			if violated != !agOffline.Holds {
				fail("session %d: AG violated=%v, offline holds=%v", i, violated, agOffline.Holds)
				return
			}
			if violated {
				if fr.Conjunct == "" {
					fail("session %d: AG verdict without failing conjunct", i)
					return
				}
				if err := exactPrefix(t, steps, fr.Event, "AG("+agPred+")", false); err != nil {
					fail("session %d: AG latch: %v", i, err)
					return
				}
			}
			// Watch 2 (STABLE) fires at event 5, the first prefix whose
			// frontier has x@P3 >= 1 with no message in flight.
			fr, ok := verdicts[2]
			if !ok {
				fail("session %d: STABLE watch never fired", i)
				return
			}
			if fr.Event != 5 {
				fail("session %d: STABLE fired at event %d, want 5", i, fr.Event)
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// exactPrefix asserts that formula evaluates to holdsAt on the first k
// scripted events and to !holdsAt on the first k-1 — i.e. event k is the
// exact determining prefix of the verdict.
func exactPrefix(t *testing.T, steps []step, k int, formula string, holdsAt bool) error {
	t.Helper()
	f := ctl.MustParse(formula)
	at, err := core.Detect(buildPrefix(t, steps, k), f)
	if err != nil {
		return err
	}
	if at.Holds != holdsAt {
		return fmt.Errorf("prefix %d: %s = %v, want %v", k, formula, at.Holds, holdsAt)
	}
	if k == 0 {
		return nil
	}
	before, err := core.Detect(buildPrefix(t, steps, k-1), f)
	if err != nil {
		return err
	}
	if before.Holds == holdsAt {
		return fmt.Errorf("prefix %d already decides %s — verdict latched late", k-1, formula)
	}
	return nil
}

// TestBackpressureDropCounters is acceptance criterion (c): with the
// drop overflow policy, a tiny queue, and a slowed monitor loop, induced
// overload must be visible — and exactly accounted — in the goodbye
// frame, the session counters, and the registry metrics.
func TestBackpressureDropCounters(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		QueueDepth:  4,
		Overflow:    server.OverflowDrop,
		IngestDelay: 2 * time.Millisecond,
		Registry:    reg,
	})
	sess, err := client.Dial(addr, client.Config{Processes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("hb_server_sessions_active", "").Value(); got != 1 {
		t.Errorf("sessions_active = %d with a session open, want 1", got)
	}
	// Internal-only events: dropping one never invalidates a later one.
	const total = 200
	for i := 0; i < total; i++ {
		sess.Internal(0, map[string]int{"x": i})
	}
	gb, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gb.Events+gb.Dropped != total {
		t.Fatalf("events %d + dropped %d != %d streamed", gb.Events, gb.Dropped, total)
	}
	if gb.Dropped == 0 {
		t.Fatal("no events dropped: backpressure was never induced")
	}
	t.Logf("applied %d, dropped %d", gb.Events, gb.Dropped)

	if got := reg.Counter("hb_server_events_total", "").Value(); got != int64(gb.Events) {
		t.Errorf("events_total = %d, goodbye says %d", got, gb.Events)
	}
	if got := reg.Counter("hb_server_events_dropped_total", "").Value(); got != int64(gb.Dropped) {
		t.Errorf("events_dropped_total = %d, goodbye says %d", got, gb.Dropped)
	}
	if got := reg.Counter("hb_server_sessions_opened_total", "").Value(); got != 1 {
		t.Errorf("sessions_opened_total = %d, want 1", got)
	}
	if got := reg.Gauge("hb_server_sessions_active", "").Value(); got != 0 {
		t.Errorf("sessions_active = %d after close, want 0", got)
	}
	if got := reg.Histogram("hb_server_ingest_seconds", "", nil).Count(); got != int64(gb.Events) {
		t.Errorf("ingest histogram has %d observations, want %d", got, gb.Events)
	}
	if srv.SessionCount() != 0 {
		t.Errorf("SessionCount = %d after close", srv.SessionCount())
	}
}

// TestGracefulShutdown: events enqueued before Shutdown are applied (the
// drain), and the goodbye frame carries the shutdown reason.
func TestGracefulShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	sess, err := client.Dial(ln.Addr().String(), client.Config{
		Processes: 3,
		Watches:   []server.Watch{{Op: "EF", Pred: efPred}},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := script(0)
	stream(sess, steps)
	// A snapshot is a synchronous round-trip through the session queue:
	// once it answers, every event above is applied, so the assertion
	// below is deterministic.
	if _, err := sess.Snapshot("EF(" + efPred + ")"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-sess.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client never saw the session end")
	}
	gb := sess.Goodbye()
	if gb == nil {
		t.Fatal("no goodbye frame after shutdown")
	}
	if gb.Events != len(steps) {
		t.Errorf("drain applied %d events, want %d", gb.Events, len(steps))
	}
	if gb.Error != "server shutting down" {
		t.Errorf("goodbye reason = %q", gb.Error)
	}
	// The verdict latched before shutdown must have been pushed.
	found := false
	for _, fr := range sess.Latched() {
		if fr.Type == server.FrameVerdict && fr.Watch == 0 {
			found = true
		}
	}
	if !found {
		t.Error("EF verdict lost in shutdown")
	}
	if _, err := srv.Open(server.SessionConfig{Processes: 1}); err == nil {
		t.Error("Open succeeded after Shutdown")
	}
}

// TestIdleTimeout: the janitor reclaims sessions that stop ingesting.
func TestIdleTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{IdleTimeout: 50 * time.Millisecond, Registry: reg})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	sess, err := srv.Open(server.SessionConfig{Processes: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle session never reclaimed")
	}
	gb := sess.Goodbye()
	if gb == nil || gb.Error != "idle timeout" {
		t.Fatalf("goodbye = %+v, want idle timeout", gb)
	}
	if srv.SessionCount() != 0 {
		t.Errorf("SessionCount = %d after idle close", srv.SessionCount())
	}
}

// TestProtocolErrors drives the TCP transport with hostile and
// out-of-order frames: structural garbage is fatal, semantic errors are
// per-frame and the session survives them.
func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t, server.Config{})

	t.Run("garbage hello", func(t *testing.T) {
		fr := rawExchange(t, addr, "this is not json\n")
		if fr.Type != server.FrameError {
			t.Fatalf("got %q frame, want error", fr.Type)
		}
	})
	t.Run("hello with zero processes", func(t *testing.T) {
		fr := rawExchange(t, addr, `{"type":"hello","processes":0}`+"\n")
		if fr.Type != server.FrameError {
			t.Fatalf("got %q frame, want error", fr.Type)
		}
	})
	t.Run("hello with bad watch", func(t *testing.T) {
		fr := rawExchange(t, addr, `{"type":"hello","processes":2,"watches":[{"op":"EX","pred":"x@P1 == 1"}]}`+"\n")
		if fr.Type != server.FrameError {
			t.Fatalf("got %q frame, want error", fr.Type)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		fr := rawExchange(t, addr, `{"type":"hello","processes":2,"bogus":1}`+"\n")
		if fr.Type != server.FrameError {
			t.Fatalf("got %q frame, want error", fr.Type)
		}
	})

	t.Run("semantic errors are survivable", func(t *testing.T) {
		sess, err := client.Dial(addr, client.Config{Processes: 2})
		if err != nil {
			t.Fatal(err)
		}
		sess.Internal(5, nil)    // process out of range
		sess.Receive(1, 99, nil) // unknown message
		sess.SendMsg(0, 7, nil)  // fine
		sess.SendMsg(1, 7, nil)  // duplicate message id
		sess.Receive(1, 7, nil)  // fine
		sess.Receive(1, 7, nil)  // received twice
		sess.Internal(0, nil)    // fine: session still alive
		gb, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if gb.Events != 3 {
			t.Errorf("applied %d events, want 3 (send, receive, internal)", gb.Events)
		}
		errFrames := 0
		for _, fr := range sess.Latched() {
			if fr.Type == server.FrameError {
				errFrames++
			}
		}
		if errFrames != 4 {
			t.Errorf("got %d error frames, want 4", errFrames)
		}
	})
}

// rawExchange writes raw bytes to a fresh connection and decodes the
// first response frame.
func rawExchange(t *testing.T, addr, payload string) server.ServerFrame {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var fr server.ServerFrame
	line, _, _ := bytes.Cut(buf[:n], []byte("\n"))
	if err := json.Unmarshal(line, &fr); err != nil {
		t.Fatalf("bad response %q: %v", buf[:n], err)
	}
	return fr
}

// TestStatsCountOneServer: Stats counts the server it is called on. Both
// servers here leave Registry nil, so their metrics share obs.Default(),
// whose counters sum every server in the process; each Stats still
// reports only its own sessions and events.
func TestStatsCountOneServer(t *testing.T) {
	feed := func(srv *server.Server, sessions, events int) {
		for i := 0; i < sessions; i++ {
			sess, err := srv.Open(server.SessionConfig{Processes: 1})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < events; j++ {
				if err := sess.Ingest(server.ClientFrame{Type: server.FrameEvent, Proc: 1}); err != nil {
					t.Fatal(err)
				}
			}
			sess.Close("bye")
			<-sess.Done()
		}
	}
	a, b := server.New(server.Config{}), server.New(server.Config{})
	defer a.Shutdown(context.Background()) //nolint:errcheck // nothing is open
	defer b.Shutdown(context.Background()) //nolint:errcheck // nothing is open
	feed(a, 2, 3)
	feed(b, 1, 5)
	for _, c := range []struct {
		name                    string
		srv                     *server.Server
		sessions, events, drops int64
	}{{"first", a, 2, 6, 0}, {"second", b, 1, 5, 0}} {
		sessions, events, dropped := c.srv.Stats()
		if sessions != c.sessions || events != c.events || dropped != c.drops {
			t.Errorf("%s server: Stats = %d sessions, %d events, %d dropped; want %d, %d, %d",
				c.name, sessions, events, dropped, c.sessions, c.events, c.drops)
		}
	}
}
