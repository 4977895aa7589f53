package cluster_test

import (
	"context"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// fuzzCluster starts the single-node cluster a fuzz function hammers and
// shuts it down when that function ends. One node per call — not one per
// process — so a repeated run (-count=2) never meets a node the previous
// run shut down; iterations stay cheap, and the per-iteration handshake
// doubles as the liveness probe: if a previous input wedged the replica
// handler, the next repl-welcome never arrives.
func fuzzCluster(f *testing.F) (*cluster.Node, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	id := ln.Addr().String()
	reg := obs.NewRegistry()
	node, err := cluster.New(
		server.Config{Registry: reg, ReadTimeout: time.Second, IdleTimeout: time.Second},
		cluster.NodeConfig{Self: id, Peers: []string{id}, Replicas: 2, Registry: reg},
	)
	if err != nil {
		f.Fatal(err)
	}
	go node.Serve(ln) //nolint:errcheck // closed by Shutdown
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		node.Shutdown(ctx) //nolint:errcheck
	})
	return node, id
}

// FuzzReplProtocol throws arbitrary bytes at the replica side of the
// replication protocol, after a well-formed repl-hello handshake — a
// hostile or buggy peer that authenticated as a cluster member. Seeds
// cover the epoch-fencing edges: negative and overflowing epochs,
// stale-epoch floods, handoff offers for unknown sessions and handoff
// replays, frames before their open, malformed JSON, and the binary data
// frames in every hostile shape (truncated header, unknown session, stale
// epoch, seq gap, oversize length, garbage payload, ids the batch decoder
// must refuse). The property is the node never panics and never wedges —
// every iteration's handshake must succeed, whatever the previous one
// sent — and that nothing undecodable ever reaches a replica log: an ack
// covers only entries a promotion could replay.
func FuzzReplProtocol(f *testing.F) {
	open := func(key string, epoch string) string {
		return `{"type":"repl-open","session":"` + key + `","epoch":` + epoch +
			`,"hello":{"type":"hello","processes":3,"resumable":true,"session":"` + key + `"}}` + "\n"
	}
	frame := func(key, epoch, seq string) string {
		e, _ := strconv.ParseInt(epoch, 10, 64)
		q, _ := strconv.ParseInt(seq, 10, 64)
		entry := cluster.Entry(server.ClientFrame{Type: server.FrameInit, Proc: 1, Var: "x", Value: 1, Seq: q})
		return string(cluster.DataFrame(key, e, q, entry))
	}
	// batchEntry is a batch log entry with a hand-written body after the seq.
	batchEntry := func(seq byte, body ...byte) []byte { return append([]byte{0x00, seq}, body...) }
	f.Add([]byte(open("k", "-1")))
	f.Add([]byte(open("k", "-9223372036854775808")))
	f.Add([]byte(open("k", "9223372036854775807") + frame("k", "9223372036854775807", "1")))
	f.Add([]byte(open("k", "5") + frame("k", "5", "1") + open("k", "7") + frame("k", "5", "2")))
	f.Add([]byte(open("k", "9") + open("k", "8") + open("k", "7") + open("k", "6") + open("k", "5"))) // stale flood
	f.Add([]byte(frame("k", "1", "1")))                                                               // frame before open
	f.Add([]byte(open("k", "2") + `{"type":"repl-handoff","session":"k","epoch":3,"seq":0}` + "\n" +
		`{"type":"repl-handoff","session":"k","epoch":3,"seq":0}` + "\n")) // handoff replay
	f.Add([]byte(`{"type":"repl-handoff","session":"ghost","epoch":1,"seq":5}` + "\n"))
	f.Add([]byte(`{"type":"repl-hello","from":"again"}` + "\n")) // hello mid-stream
	f.Add([]byte(`{"type":"repl-ack","session":"k","seq":1}` + "\n"))
	f.Add([]byte(`{"type":"repl-open","session":"","epoch":1}` + "\n"))
	f.Add([]byte(open("k", "1") + frame("k", "1", "-1") + frame("k", "1", "9223372036854775807")))
	good := frame("k", "3", "1")
	f.Add([]byte(open("k", "3") + good[:len(good)/2]))                                                           // truncated mid-frame
	f.Add([]byte(open("k", "3") + good[:4]))                                                                     // truncated header
	f.Add([]byte(open("k", "3") + frame("ghost", "3", "1")))                                                     // unknown session
	f.Add([]byte(open("k", "3") + frame("k", "2", "1")))                                                         // stale epoch
	f.Add([]byte(open("k", "3") + good + frame("k", "3", "5")))                                                  // seq gap
	f.Add(append([]byte(open("k", "3")), server.FrameMagic, server.BinRepl, 0xff, 0xff, 0xff, 0x7f))             // oversize length
	f.Add(append([]byte(open("k", "3")), cluster.DataFrame("k", 3, 1, []byte{0x00, 0x01, 0x01, 0xff, 0x01})...)) // garbage payload
	f.Add(append([]byte(open("k", "3")), cluster.DataFrame("k", 3, 1, []byte{0x01, '{', '}'})...))               // control entry without a seq
	// One event whose proc is 2³¹, and one whose msg is 2³²+1: ids that
	// would wrap or alias if the batch decoder narrowed them unchecked.
	f.Add(append([]byte(open("k", "3")), cluster.DataFrame("k", 3, 1, batchEntry(1, 0x01, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00))...))
	f.Add(append([]byte(open("k", "3")), cluster.DataFrame("k", 3, 1, batchEntry(1, 0x01, 0x05, 0x82, 0x80, 0x80, 0x80, 0x20, 0x00))...))
	f.Add([]byte("not json\n"))
	f.Add([]byte{0x00, 0xff, '\n'})
	node, addr := fuzzCluster(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Skip("node saturated") // accept backlog under fuzz load
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write([]byte(`{"type":"repl-hello","from":"fuzz"}` + "\n")); err != nil {
			t.Skip("handshake write lost to a racing shutdown")
		}
		sc := server.NewFrameScanner(conn)
		if !sc.Scan() {
			t.Fatalf("no repl-welcome: the previous input wedged the replica handler (%v)", sc.Err())
		}
		conn.Write(data) //nolint:errcheck // the node may reject mid-write
		// Drain replies until the node closes the link or a short quiet
		// deadline; the scanner bounds every frame exactly as serveRepl's
		// peer would see it.
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		for sc.Scan() {
		}
		if err := node.CheckReplicaLogs(); err != nil {
			t.Fatal(err)
		}
	})
}
