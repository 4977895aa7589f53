//go:build !race

package client_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// TestDialSessionHeap bounds what a dialed, fed and still open session
// holds on the heap on both ends of a loopback connection: the client
// session and its connection, and the server session, its monitor with
// the 96 events, its watches and its connection's reader and writer.
// Buffers a session may never fill (the Verdicts channel, the server's
// queue slots and writer frames) are not allocated whole at Dial and
// Open. Not under the race detector, which changes heap sizes; CI runs
// it in a step of its own.
func TestDialSessionHeap(t *testing.T) {
	const sessions, bound = 200, 48 << 10
	srv, addr := startServer(t, server.Config{})
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	open := make([]*client.Session, 0, sessions)
	for i := 0; i < sessions; i++ {
		sess, err := client.Dial(addr, churnConfig)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, sess)
		feedSession(sess)
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, events, _ := srv.Stats(); events < sessions*churnEvents; _, events, _ = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("the server applied %d events, want %d", events, sessions*churnEvents)
		}
		time.Sleep(time.Millisecond)
	}
	per := (heap() - before) / sessions
	for _, sess := range open {
		if _, err := sess.Close(); err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d B of heap per dialed session of %d events", per, churnEvents)
	if per > bound {
		t.Errorf("a dialed session holds %d B of heap, want at most %d", per, bound)
	}
}
