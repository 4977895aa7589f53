//go:build !race

package client_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// heap returns the bytes live on the heap after a collection.
func heap() int64 {
	runtime.GC()
	runtime.GC() // the second cycle empties the sync.Pool victim caches
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

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

// TestCloseLeavesNoTimer: a closed session leaves nothing live behind.
// Close used to wait for the goodbye on a time.After, whose timer stays
// on the heap until it fires, ten seconds later (go.mod's go 1.22 keeps
// that rule): ≈ 270 B per session, a few MB at the churn rate. The heap
// after 2 000 Dial/Close cycles must not grow with the count.
func TestCloseLeavesNoTimer(t *testing.T) {
	const cycles, bound = 2000, 64
	_, addr := startServer(t, server.Config{})
	churn := func(n int) {
		for i := 0; i < n; i++ {
			sess, err := client.Dial(addr, client.Config{Processes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(100) // the pooled connection and the server's tables settle
	before := heap()
	churn(cycles)
	per := (heap() - before) / cycles
	t.Logf("%d B of heap per closed session", per)
	if per > bound {
		t.Errorf("each closed session leaves %d B live on the heap, want at most %d", per, bound)
	}
}
