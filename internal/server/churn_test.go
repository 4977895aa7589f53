package server_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// BenchmarkSessionChurn measures the session table under concurrent
// churn: each operation opens a session, ingests one event, closes it
// and waits until it is gone — the life of an offline-sliced serving
// session without its events. The plain sessions leave nothing behind;
// the resumable ones are keyed and retire their key with its terminal
// replay, so the retired-key bound is reached and kept. ns/op is per
// session.
func BenchmarkSessionChurn(b *testing.B) {
	watches := []server.Watch{{Op: "EF", Pred: "conj(x@P1 == 1, x@P2 == 1)"}}
	event := server.ClientFrame{Type: server.FrameEvent, Proc: 1, Sets: map[string]int{"x": 1}}
	for _, mode := range []struct {
		name      string
		resumable bool
	}{{"plain", false}, {"resumable", true}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := server.New(server.Config{Registry: obs.NewRegistry()})
			defer srv.Shutdown(context.Background())
			var keys atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cfg := server.SessionConfig{Processes: 2, Watches: watches}
					if mode.resumable {
						cfg.ID, cfg.Resumable = fmt.Sprintf("churn-%d", keys.Add(1)), true
					}
					sess, err := srv.Open(cfg)
					if err != nil {
						b.Error(err)
						return
					}
					if err := sess.Ingest(event); err != nil {
						b.Error(err)
					}
					sess.Close("bye")
					<-sess.Done()
					if gb := sess.Goodbye(); gb == nil || gb.Events != 1 {
						b.Errorf("goodbye %+v, want 1 event", gb)
					}
				}
			})
		})
	}
}
