package client_test

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// serveCounting starts a server on a listener that counts its accepts,
// wrapped by wrap when it is non-nil; startServer's own listener is left
// unused.
func serveCounting(t *testing.T, cfg server.Config, wrap func(net.Listener) net.Listener) (*countingListener, string) {
	t.Helper()
	srv, _ := startServer(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	var served net.Listener = cl
	if wrap != nil {
		served = wrap(cl)
	}
	go srv.Serve(served) //nolint:errcheck // closed by Shutdown
	return cl, ln.Addr().String()
}

// freshDial bypasses the idle pool: a session with its own dialer never
// uses it.
func freshDial(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }

// runChurnSession dials, streams the churn feed, and closes; it returns
// the latched frames and the goodbye with their session ids cleared.
func runChurnSession(t *testing.T, addr string, cfg client.Config) ([]server.ServerFrame, server.ServerFrame) {
	t.Helper()
	sess, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedSession(sess)
	gb, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	latched := sess.Latched()
	for i := range latched {
		latched[i].Session = ""
	}
	out := *gb
	out.Session = ""
	return latched, out
}

// TestKeepAliveSessions runs twenty sessions one after another against
// one server: each after the first hands its hello to the connection the
// last one's goodbye left in the idle pool, so the server accepts one
// connection for all of them. Every session's verdicts and goodbye equal
// those of the same feed on a connection of its own.
func TestKeepAliveSessions(t *testing.T) {
	kinds := map[string]func(*client.Config){
		"ndjson":    func(c *client.Config) { c.Encoding = "" },
		"binary":    func(c *client.Config) {},
		"bounded":   func(c *client.Config) { c.Bounded = true },
		"reconnect": func(c *client.Config) { c.Reconnect = true },
	}
	for name, kind := range kinds {
		t.Run(name, func(t *testing.T) {
			ln, addr := serveCounting(t, server.Config{}, nil)
			cfg := churnConfig
			kind(&cfg)
			fresh := cfg
			fresh.Dial = freshDial
			wantLatched, wantBye := runChurnSession(t, addr, fresh)
			if len(wantLatched) == 0 {
				t.Fatal("the feed latches no verdict; nothing to compare")
			}
			before := ln.accepted.Load()
			for i := 0; i < 20; i++ {
				latched, bye := runChurnSession(t, addr, cfg)
				if !reflect.DeepEqual(latched, wantLatched) {
					t.Fatalf("session %d latched %+v, want %+v", i, latched, wantLatched)
				}
				if !reflect.DeepEqual(bye, wantBye) {
					t.Fatalf("session %d goodbye %+v, want %+v", i, bye, wantBye)
				}
			}
			if got := ln.accepted.Load() - before; got != 1 {
				t.Errorf("the server accepted %d connections for 20 sessions, want 1", got)
			}
		})
	}
}

// TestKeepAliveConcurrent: sessions dialed and closed from several
// goroutines at once share the idle pool; each gets a connection of its
// own, its own events and its own goodbye, and most reuse a connection.
func TestKeepAliveConcurrent(t *testing.T) {
	const workers, sessions = 6, 30
	ln, addr := serveCounting(t, server.Config{}, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= sessions; i++ {
				sess, err := client.Dial(addr, client.Config{Processes: 1})
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < i; j++ {
					sess.Internal(0, nil)
				}
				gb, err := sess.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if gb.Events != i {
					t.Errorf("goodbye counts %d events, want %d", gb.Events, i)
				}
			}
		}()
	}
	wg.Wait()
	if got := ln.accepted.Load(); got > workers*sessions/2 {
		t.Errorf("the server accepted %d connections for %d sessions, want at most half", got, workers*sessions)
	}
}

// TestStalePoolRedials: a kept connection the server has closed — killed
// with the others, or timed out by the server's read deadline while it
// sat idle — costs the next Dial one round trip. It dials fresh at once,
// without a backoff and without counting a reconnect.
func TestStalePoolRedials(t *testing.T) {
	cfg := client.Config{Processes: 2, Reconnect: true, BackoffBase: time.Second}
	redial := func(t *testing.T, addr string, ln *countingListener) {
		t.Helper()
		before := ln.accepted.Load()
		start := time.Now()
		sess, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took >= cfg.BackoffBase {
			t.Errorf("Dial after a stale pooled connection took %v, want under %v", took, cfg.BackoffBase)
		}
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if st := sess.Stats(); st.Reconnects != 0 || st.Outage != 0 {
			t.Errorf("stats %+v, want no reconnect and no outage", st)
		}
		if got := ln.accepted.Load() - before; got != 1 {
			t.Errorf("the server accepted %d connections, want 1 fresh one", got)
		}
	}
	t.Run("killed", func(t *testing.T) {
		var kl *faults.KillableListener
		ln, addr := serveCounting(t, server.Config{}, func(l net.Listener) net.Listener {
			kl = faults.WrapKillable(l)
			return kl
		})
		runChurnSession(t, addr, client.Config{Processes: 8, Watches: churnConfig.Watches})
		kl.KillConns()
		redial(t, addr, ln)
	})
	t.Run("read-deadline", func(t *testing.T) {
		reg := obs.NewRegistry()
		ln, addr := serveCounting(t, server.Config{Registry: reg, ReadTimeout: 100 * time.Millisecond}, nil)
		runChurnSession(t, addr, client.Config{Processes: 8, Watches: churnConfig.Watches})
		timedOut := reg.Counter(`hb_server_conn_closes_total{reason="`+server.CloseReadTimeout+`"}`, "")
		for deadline := time.Now().Add(5 * time.Second); timedOut.Value() == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the server never timed the idle connection out")
			}
		}
		redial(t, addr, ln)
	})
}

// goodbyeCutter closes the first accepted connection that writes a
// goodbye while it is armed, instead of writing it: the connection dies
// between a bye the server applied and its goodbye.
type goodbyeCutter struct {
	net.Listener
	armed atomic.Bool
}

func (l *goodbyeCutter) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: conn, l: l}, nil
}

type cutConn struct {
	net.Conn
	l *goodbyeCutter
}

func (c *cutConn) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"goodbye"`)) && c.l.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestResumeTerminalReplayThenPool: a reconnecting session whose goodbye
// is lost after the server applied its bye resumes into the terminal
// replay and gets the goodbye from it. The server closes that connection,
// and the client does not pool it, so the next Dial to the address opens
// its session on a fresh connection, and the server never reads the
// finished session's frames as a handshake.
func TestResumeTerminalReplayThenPool(t *testing.T) {
	reg := obs.NewRegistry()
	var cut *goodbyeCutter
	ln, addr := serveCounting(t, server.Config{Registry: reg}, func(l net.Listener) net.Listener {
		cut = &goodbyeCutter{Listener: l}
		return cut
	})
	cfg := churnConfig
	cfg.Reconnect = true
	cfg.BackoffBase = time.Millisecond
	sess, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedSession(sess)
	cut.armed.Store(true)
	gb, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gb.Events != churnEvents {
		t.Errorf("goodbye counts %d events, want %d", gb.Events, churnEvents)
	}
	if cut.armed.Load() {
		t.Fatal("no goodbye was cut")
	}
	if st := sess.Stats(); st.Reconnects != 1 {
		t.Fatalf("stats %+v, want the one reconnect into the terminal replay", st)
	}

	before := ln.accepted.Load()
	next, err := client.Dial(addr, churnConfig)
	if err != nil {
		t.Fatalf("Dial after a terminal replay: %v", err)
	}
	feedSession(next)
	if gb, err := next.Close(); err != nil || gb.Events != churnEvents {
		t.Fatalf("next session's goodbye %+v, %v; want %d events", gb, err, churnEvents)
	}
	if got := ln.accepted.Load() - before; got != 1 {
		t.Errorf("the server accepted %d connections for the next session, want 1 fresh one", got)
	}
	if n := reg.Counter("hb_server_protocol_errors_total", "").Value(); n != 0 {
		t.Errorf("the server counted %d protocol errors, want 0", n)
	}
}
