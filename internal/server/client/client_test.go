package client_test

import (
	"context"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
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

// Write modes for flakyConn.
const (
	modePass      = iota // writes reach the wire
	modeBlackhole        // writes report success but go nowhere
	modeFailWrite        // writes return an error
)

// flakyConn wraps a real connection with a switchable write mode, so a
// test can first swallow a frame (delivered from the client's point of
// view, lost from the server's) and then make the next write fail.
type flakyConn struct {
	net.Conn
	mode atomic.Int32
}

func (c *flakyConn) Write(p []byte) (int, error) {
	switch c.mode.Load() {
	case modeBlackhole:
		return len(p), nil
	case modeFailWrite:
		return 0, net.ErrClosed
	default:
		return c.Conn.Write(p)
	}
}

// TestFailedWriteUnblocksSnapshotWaiters is the regression test for the
// sticky-error path: a snapshot whose request was lost used to wait on
// its response channel forever even after a later write failed the
// session sticky, because nothing woke the pending waiters. The fix
// closes the session's failure channel, which every waiter selects on.
func TestFailedWriteUnblocksSnapshotWaiters(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	fc := &flakyConn{}
	sess, err := client.Dial(addr, client.Config{
		Processes: 2,
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			fc.Conn = c
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot request vanishes in flight: the waiter blocks on a
	// response that will never come.
	fc.mode.Store(modeBlackhole)
	snapErr := make(chan error, 1)
	go func() {
		_, err := sess.Snapshot("EF conj(x@P1 == 1)")
		snapErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter register and block

	// Now a write fails and the session goes sticky-failed; the blocked
	// snapshot must unblock with that error.
	fc.mode.Store(modeFailWrite)
	sess.Internal(0, nil)
	if err := sess.Err(); err == nil {
		t.Fatal("failed write did not set the sticky session error")
	}
	select {
	case err := <-snapErr:
		if err == nil {
			t.Fatal("snapshot returned nil error after session failure")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot waiter still blocked 2s after session failure")
	}
}

// verdictKey is the comparable content of a pushed frame — everything
// except the session id and transport bookkeeping.
type verdictKey struct {
	typ, op, pred, err string
	event              int
	holds              string
}

func keyOf(fr server.ServerFrame) verdictKey {
	k := verdictKey{typ: fr.Type, op: fr.Op, pred: fr.Pred, err: fr.Error, event: fr.Event, holds: "nil"}
	if fr.Holds != nil {
		if *fr.Holds {
			k.holds = "true"
		} else {
			k.holds = "false"
		}
	}
	return k
}

// TestReconnectResumesAndReplays kills the connection mid-stream and
// checks the client reconnects, replays the unacked suffix, and ends
// with exactly the verdicts of an uninterrupted run.
func TestReconnectResumesAndReplays(t *testing.T) {
	_, addr := startServer(t, server.Config{AckEvery: 2})
	watches := []server.Watch{
		{Op: "EF", Pred: "conj(x@P1 == 1, x@P2 == 1)"},
		{Op: "AG", Pred: "conj(x@P2 <= 1)"},
	}
	run := func(interrupt bool) (*client.Session, *server.ServerFrame) {
		var cur atomic.Pointer[net.Conn]
		sess, err := client.Dial(addr, client.Config{
			Processes:   2,
			Watches:     watches,
			Reconnect:   true,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
			Dial: func(a string) (net.Conn, error) {
				c, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				cur.Store(&c)
				return c, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sess.SetInitial(0, "x", 0)
		sess.SetInitial(1, "x", 0)
		sess.Internal(0, map[string]int{"x": 1})
		m := sess.Send(0, nil)
		if interrupt {
			(*cur.Load()).Close() // the network "fails" mid-stream
		}
		sess.Receive(1, m, map[string]int{"x": 1})
		sess.Internal(1, map[string]int{"x": 2}) // violates the AG watch
		gb, err := sess.Close()
		if err != nil {
			t.Fatalf("close: %v (session err: %v)", err, sess.Err())
		}
		return sess, gb
	}

	control, cgb := run(false)
	faulty, fgb := run(true)

	if got := faulty.Stats(); got.Reconnects < 1 {
		t.Errorf("interrupted run reconnected %d times, want >= 1", got.Reconnects)
	}
	if cgb.Events != fgb.Events {
		t.Errorf("applied events diverged: control %d, interrupted %d", cgb.Events, fgb.Events)
	}
	want := control.Latched()
	got := faulty.Latched()
	if len(want) != len(got) {
		t.Fatalf("latched %d frames, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if keyOf(want[i]) != keyOf(got[i]) {
			t.Errorf("frame %d diverged: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestResumeRedeclaresVariables cuts a binary session between two acked
// events and the rest of the stream. Binary batches name variables by
// per-connection index in order of first appearance, and the second
// connection meets them in the opposite order ("b" then "a", where the
// first declared "a" then "b"), so a server that keyed its valuations on
// wire indices would swap the two after the resume. The verdicts must be
// those of the uninterrupted run, frame for frame.
func TestResumeRedeclaresVariables(t *testing.T) {
	_, addr := startServer(t, server.Config{AckEvery: 1})
	watches := []server.Watch{
		{Op: "EF", Pred: "conj(a@P1 == 2, b@P2 == 2)"},
		{Op: "AG", Pred: "conj(b@P1 <= 5)"},
		{Op: "EF", Pred: "conj(a@P2 >= 1)"}, // never: only b is ever assigned on P2
	}
	run := func(interrupt bool) []server.ServerFrame {
		var cur atomic.Pointer[net.Conn]
		sess, err := client.Dial(addr, client.Config{
			Processes:   2,
			Watches:     watches,
			Reconnect:   true,
			Encoding:    server.EncodingBinary,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
			Dial: func(a string) (net.Conn, error) {
				c, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				cur.Store(&c)
				return c, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sess.Internal(0, map[string]int{"a": 1})
		sess.Internal(1, map[string]int{"b": 1})
		if interrupt {
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); sess.Acked() < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("first batch never acked")
				}
			}
			(*cur.Load()).Close()
		}
		sess.Internal(1, map[string]int{"b": 2})
		sess.Internal(0, map[string]int{"a": 2})         // the first EF fires here
		sess.Internal(0, map[string]int{"b": 7, "a": 3}) // and the AG fails here
		gb, err := sess.Close()
		if err != nil {
			t.Fatalf("close: %v (session err: %v)", err, sess.Err())
		}
		if gb.Events != 5 {
			t.Fatalf("%d events applied, want 5", gb.Events)
		}
		if interrupt && sess.Stats().Reconnects < 1 {
			t.Fatal("interrupted run never reconnected")
		}
		latched := sess.Latched()
		for i := range latched {
			latched[i].Session = ""
		}
		return latched
	}
	want, got := run(false), run(true)
	if len(want) != 2 || want[0].Watch != 0 || want[0].Event != 4 || want[1].Watch != 1 || want[1].Event != 5 {
		t.Fatalf("uninterrupted run latched %+v, want the EF at event 4 and the AG at event 5", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interrupted run latched\n  %+v\nuninterrupted\n  %+v", got, want)
	}
}
