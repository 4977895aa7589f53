package cluster_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

func TestParseDurability(t *testing.T) {
	cases := []struct {
		in   string
		want cluster.Durability
		err  bool
	}{
		{"", cluster.Available, false},
		{"available", cluster.Available, false},
		{"durable", cluster.Durable, false},
		{"DURABLE", 0, true},
		{"quorum", 0, true},
	}
	for _, c := range cases {
		got, err := cluster.ParseDurability(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseDurability(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseDurability(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, d := range []cluster.Durability{cluster.Available, cluster.Durable} {
		if rt, err := cluster.ParseDurability(d.String()); err != nil || rt != d {
			t.Errorf("String round-trip of %v = %v, %v", d, rt, err)
		}
	}
}

// pollAcked waits until the session's acked watermark reaches want.
func pollAcked(t *testing.T, sess *client.Session, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sess.Acked() < want {
		if time.Now().After(deadline) {
			t.Fatalf("acked watermark stuck at %d, want %d", sess.Acked(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterDurableZeroLoss proves the durable gate's contract end to
// end: a durable session's acks stall for the duration of a replica
// outage (visible as the degraded gauge and the typed replica-outage
// diagnostic), resume when the replica returns and catches up, and —
// because no frame was acked before every replica held it — a
// subsequent owner death loses nothing: the failover finishes the
// computation with verdicts bit-identical to offline detection. The
// durable mode arrives via the per-session hello override on an
// available-default cluster.
func TestClusterDurableZeroLoss(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "durable-zero-loss"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	steps := script(1)

	cfg := clientConfig(key, h.ids, 21)
	cfg.Durability = "durable"
	sess, err := client.Dial("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true) // 7 frames: 3 inits + 4 events
	deadline := time.Now().Add(5 * time.Second)
	for h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	pollAcked(t, sess, 6) // AckEvery=2: at least seq 6 acked once replicated

	// Replica outage: the durable gate must close. The stall is visible
	// as the degraded gauge and the typed diagnostic on /debug/obs.
	h.kls[replica].Kill()
	deadline = time.Now().Add(5 * time.Second)
	for h.regs[owner].Gauge("hb_cluster_degraded_sessions", "").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("degraded_sessions gauge never rose on replica outage")
		}
		time.Sleep(2 * time.Millisecond)
	}
	streamRange(sess, steps, 4, len(steps), false) // seq 8..10, acks gated

	st, ok := h.nodes[owner].DebugState().(cluster.DebugCluster)
	if !ok {
		t.Fatalf("DebugState returned %T", h.nodes[owner].DebugState())
	}
	var found bool
	for _, ds := range st.Hosted {
		if ds.Key != key {
			continue
		}
		found = true
		if ds.Durability != "durable" {
			t.Errorf("debug durability = %q, want durable (hello override lost)", ds.Durability)
		}
		if !ds.Degraded || !strings.Contains(ds.Diagnostic, "replica-outage") {
			t.Errorf("debug session not flagged degraded with a replica-outage diagnostic: %+v", ds)
		}
	}
	if !found {
		t.Fatalf("hosted session %q missing from DebugState: %+v", key, st)
	}

	// The gate holds: nothing past the outage watermark is acked while
	// the replica is down.
	time.Sleep(100 * time.Millisecond)
	if a := sess.Acked(); a > 7 {
		t.Fatalf("durable session acked seq %d during the replica outage (watermark 7)", a)
	}

	// The replica returns: the link reconnects, resyncs the withheld
	// tail, and the stalled acks are released.
	h.kls[replica].Restart()
	pollAcked(t, sess, 10)
	deadline = time.Now().Add(5 * time.Second)
	for h.regs[owner].Gauge("hb_cluster_degraded_sessions", "").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("degraded_sessions gauge never recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Owner death after the outage: every acked frame is on the replica,
	// so the failover must finish with zero loss.
	h.kls[owner].Kill()
	gb, err := sess.Close()
	if err != nil {
		t.Fatalf("close after failover: %v", err)
	}
	if gb.Events != len(steps) || gb.Dropped != 0 {
		t.Fatalf("goodbye %d events (%d dropped), want %d (0)", gb.Events, gb.Dropped, len(steps))
	}
	if err := verifyVerdicts(t, steps, sess.Latched()); err != nil {
		t.Fatal(err)
	}
	if v := h.regs[replica].Counter("hb_cluster_failovers_total", "").Value(); v != 1 {
		t.Errorf("replica failovers_total = %d, want 1", v)
	}
}

// TestClusterAvailableLossWindow pins the documented tradeoff of the
// default mode with a deterministic schedule: in available mode the ack
// gate opens through a replica outage, so frames acked during it exist
// only on the owner — and when the owner then dies before the replica
// recovers, exactly that window is gone. The client must surface the
// loss as a typed sticky bad-seq error, never silently rewind.
func TestClusterAvailableLossWindow(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "avail-loss-window"
	succ := h.nodes[0].Ring().Successors(key, 2)
	ownerID, replicaID := succ[0], succ[1]
	owner, replica := h.index(ownerID), h.index(replicaID)
	steps := script(1)

	var mu sync.Mutex
	target := ownerID
	cfg := clientConfig(key, nil, 22)
	cfg.MaxAttempts = 20
	cfg.Dial = func(string) (net.Conn, error) {
		mu.Lock()
		addr := target
		mu.Unlock()
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
	sess, err := client.Dial(ownerID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true)
	deadline := time.Now().Add(5 * time.Second)
	for h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Replica outage; the available-mode gate opens and the remaining
	// frames are acked against the owner alone.
	h.kls[replica].Kill()
	streamRange(sess, steps, 4, len(steps), false) // seq 8..10
	pollAcked(t, sess, 10)

	// Owner dies holding the only copy of seq 8..10; the replica returns
	// with its log still at seq 7.
	mu.Lock()
	target = replicaID
	mu.Unlock()
	h.kls[owner].Kill()
	h.kls[replica].Restart()

	select {
	case <-sess.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session neither resumed nor failed after the owner died")
	}
	err = sess.Err()
	if err == nil {
		t.Fatal("session finished cleanly despite the acked tail being lost")
	}
	if !strings.Contains(err.Error(), "bad-seq") {
		t.Fatalf("loss surfaced as %v, want a typed bad-seq rejection", err)
	}

	// The window is exactly the frames acked during the outage: the
	// client's watermark reached 10 while the replica's log holds 7.
	if v := h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value(); v != 7 {
		t.Errorf("replica log advanced to %d frames, want 7 (loss window must be 3)", v)
	}
	if a := sess.Acked(); a != 10 {
		t.Errorf("client acked watermark = %d, want 10", a)
	}
}

// TestClusterAckAfterLinkDrop: in available mode, an ack the gate
// withheld while the replica link was up is sent as soon as that link
// drops — the gate then skips the replica — and not only when the client's
// connection idles out and resumes. The replica is a fake that welcomes
// the link and never acks, so the gate withholds every ack until the drop.
func TestClusterAckAfterLinkDrop(t *testing.T) {
	const idle = 3 * time.Second
	ownerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replicaLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer replicaLn.Close()
	owner := ownerLn.Addr().String()
	links := make(chan net.Conn, 4)
	opened := make(chan struct{}, 4) // a repl-open arrived: the link is up
	go func() {
		for {
			conn, err := replicaLn.Accept()
			if err != nil {
				return
			}
			links <- conn
			go func() {
				br := bufio.NewReader(conn)
				if _, err := br.ReadBytes('\n'); err != nil { // the repl-hello
					return
				}
				io.WriteString(conn, `{"type":"repl-welcome"}`+"\n") //nolint:errcheck // the owner redials
				if _, err := br.ReadBytes('\n'); err != nil {
					return
				}
				opened <- struct{}{}
				io.Copy(io.Discard, br) //nolint:errcheck // never acks
			}()
		}
	}()

	node, err := cluster.New(
		server.Config{AckEvery: 2, IdleTimeout: idle, Registry: obs.NewRegistry()},
		cluster.NodeConfig{Self: owner, Peers: []string{owner, replicaLn.Addr().String()}, Replicas: 2, Registry: obs.NewRegistry()},
	)
	if err != nil {
		t.Fatal(err)
	}
	go node.Serve(ownerLn) //nolint:errcheck // closed by Shutdown
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		node.Shutdown(ctx) //nolint:errcheck // the test has its verdict
	}()
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("ack-link-drop-%d", i); node.Ring().Successors(k, 2)[0] == owner {
			key = k
		}
	}

	sess, err := client.Dial(owner, clientConfig(key, nil, 31))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-opened:
	case <-time.After(5 * time.Second):
		t.Fatal("the replication link never came up")
	}
	steps := script(1)
	streamRange(sess, steps, 0, len(steps), true) // seqs 1..10
	deadline := time.Now().Add(5 * time.Second)
	for s := node.Server().Session(key); s == nil || s.AckedSeq() < 10; s = node.Server().Session(key) {
		if time.Now().After(deadline) {
			t.Fatal("the owner never applied seq 10")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if a := sess.Acked(); a >= 10 {
		t.Fatalf("acked %d while the replica link was up and silent: the gate withheld nothing", a)
	}

	// The replica dies: its link closes and redials are refused.
	replicaLn.Close()
	(<-links).Close()
	dropped := time.Now()
	for sess.Acked() < 10 {
		if time.Since(dropped) > idle/3 {
			t.Fatalf("ack 10 not seen %v after the link dropped (acked %d); the idle timeout is %v", idle/3, sess.Acked(), idle)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterLinkReconnect drops a live replication link mid-session (a
// network blip, not a node death) and asserts the shared backoff policy
// redials it — counted by hb_cluster_link_reconnects_total — resyncs
// the log, and the session still finishes exactly-once.
func TestClusterLinkReconnect(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "link-blip"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	steps := script(1)

	sess, err := client.Dial("", clientConfig(key, h.ids, 23))
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true)
	deadline := time.Now().Add(5 * time.Second)
	for h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}

	base := h.regs[owner].Counter("hb_cluster_link_reconnects_total", "").Value()
	h.kls[replica].KillConns() // blip: connections die, the listener stays up
	deadline = time.Now().Add(5 * time.Second)
	for h.regs[owner].Counter("hb_cluster_link_reconnects_total", "").Value() <= base {
		if time.Now().After(deadline) {
			t.Fatalf("link never redialed after the blip")
		}
		time.Sleep(2 * time.Millisecond)
	}

	streamRange(sess, steps, 4, len(steps), false)
	gb, err := sess.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if gb.Events != len(steps) || gb.Dropped != 0 {
		t.Fatalf("goodbye %d events (%d dropped), want %d (0)", gb.Events, gb.Dropped, len(steps))
	}
	if err := verifyVerdicts(t, steps, sess.Latched()); err != nil {
		t.Fatal(err)
	}
}
