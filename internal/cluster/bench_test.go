package cluster_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// BenchmarkReplicate streams one keyed session of 64-event binary batches
// through a two-node cluster over loopback — client → owner → replica, ack
// gate included — in a closed loop (the client's in-flight buffer is the
// window). One op is one batch frame, so allocs/op is allocations per
// replicated frame across client, owner and replica; events/s is the
// end-to-end rate until the goodbye, and the replica is checked to hold
// every frame.
func BenchmarkReplicate(b *testing.B) {
	const batch, procs = 64, 4
	ids := make([]string, 2)
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i], ids[i] = ln, ln.Addr().String()
	}
	regs := make([]*obs.Registry, 2)
	for i, ln := range lns {
		regs[i] = obs.NewRegistry()
		n, err := cluster.New(server.Config{Registry: regs[i]},
			cluster.NodeConfig{Self: ids[i], Peers: ids, Replicas: 2, Registry: regs[i]})
		if err != nil {
			b.Fatal(err)
		}
		go n.Serve(ln) //nolint:errcheck // closed by Shutdown
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			n.Shutdown(ctx) //nolint:errcheck
		})
	}
	sess, err := client.Dial("", client.Config{
		Processes: procs,
		Bounded:   true,                                                             // keep the monitor's record of the prefix out of the measurement
		Watches:   []server.Watch{{Op: "EF", Pred: "conj(x@P1 == -1, x@P2 == -1)"}}, // never fires
		Key:       "bench-replicate",
		Peers:     ids,
		Reconnect: true,
		Encoding:  server.EncodingBinary,
		BatchSize: batch,
	})
	if err != nil {
		b.Fatal(err)
	}
	sets := map[string]int{"x": 0}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*batch; i++ {
		sets["x"] = i % 7
		sess.Internal(i%procs, sets)
	}
	gb, err := sess.Close()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if gb.Events != b.N*batch {
		b.Fatalf("goodbye counts %d events, want %d", gb.Events, b.N*batch)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/s")

	want := int64(b.N + 1) // the batches and the bye
	var recv int64
	for deadline := time.Now().Add(10 * time.Second); recv < want && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		recv = regs[0].Counter("hb_cluster_repl_frames_recv_total", "").Value() +
			regs[1].Counter("hb_cluster_repl_frames_recv_total", "").Value()
	}
	if recv != want {
		b.Fatalf("replica holds %d frames, want %d", recv, want)
	}
}
