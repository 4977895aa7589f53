//go:build !race

package server_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestOpenSessionHeap bounds what an open, idle session holds on the heap
// under the default config: the session, its monitor and watches, and the
// ingest queue, whose QueueDepth slots are pointers to units taken from a
// pool only when enqueued (≈ 5 KB in all, the bound 1.5 times that). Not
// under the race detector, which changes heap sizes; CI runs it in a step
// of its own.
func TestOpenSessionHeap(t *testing.T) {
	const sessions, bound = 200, 7680
	srv := server.New(server.Config{Registry: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	cfg := server.SessionConfig{Processes: 4, Watches: []server.Watch{
		{Op: "EF", Pred: "conj(x@P1 == 1, x@P2 == 1)"},
		{Op: "AG", Pred: "conj(y@P3 <= 2)"},
	}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	open := make([]*server.Session, 0, sessions)
	for i := 0; i < sessions; i++ {
		sess, err := srv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, sess)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	runtime.KeepAlive(open)
	t.Logf("%d B of heap per open session", per)
	if per > bound {
		t.Errorf("an open session holds %d B of heap, want at most %d", per, bound)
	}
}
