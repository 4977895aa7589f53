package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
)

// wireMsg mirrors the replication protocol line shape for raw-wire
// tests that speak the protocol by hand.
type wireMsg struct {
	Type    string          `json:"type"`
	From    string          `json:"from,omitempty"`
	Session string          `json:"session,omitempty"`
	Seq     int64           `json:"seq,omitempty"`
	Epoch   int64           `json:"epoch,omitempty"`
	Code    string          `json:"code,omitempty"`
	Hello   json.RawMessage `json:"hello,omitempty"`
}

// replDialog wraps a raw connection speaking the replication protocol:
// send writes one NDJSON control line, recv decodes the next reply; data
// frames are written to conn directly.
type replDialog struct {
	t    *testing.T
	conn net.Conn
	sc   *server.FrameScanner
}

func dialRepl(t *testing.T, addr, from string) *replDialog {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	d := &replDialog{t: t, conn: conn, sc: server.NewFrameScanner(conn)}
	d.send(fmt.Sprintf(`{"type":"repl-hello","from":%q}`, from))
	if m := d.recv(); m.Type != "repl-welcome" {
		t.Fatalf("handshake reply = %+v, want repl-welcome", m)
	}
	return d
}

func (d *replDialog) send(line string) {
	d.t.Helper()
	if _, err := d.conn.Write([]byte(line + "\n")); err != nil {
		d.t.Fatalf("write %s: %v", line, err)
	}
}

func (d *replDialog) recv() wireMsg {
	d.t.Helper()
	if !d.sc.Scan() {
		d.t.Fatalf("connection closed mid-dialog: %v", d.sc.Err())
	}
	var m wireMsg
	if err := json.Unmarshal(d.sc.Bytes(), &m); err != nil {
		d.t.Fatalf("bad reply %q: %v", d.sc.Bytes(), err)
	}
	return m
}

// TestReplEpochFencingWire drives the replica side of the epoch protocol
// over a handcrafted connection: a newer incarnation's open truncates
// the held log (fence), anything carrying an older epoch bounces with
// the typed stale-epoch reject naming the held epoch, and the fenced log
// restarts cleanly from seq zero under the new epoch.
func TestReplEpochFencingWire(t *testing.T) {
	h := startCluster(t, 1, false, 0)
	d := dialRepl(t, h.ids[0], "wire-test")
	const key = "wire-fence"
	open := func(epoch int64) {
		d.send(fmt.Sprintf(`{"type":"repl-open","session":%q,"epoch":%d,"hello":{"type":"hello","processes":3,"resumable":true,"session":%q}}`, key, epoch, key))
	}
	frame := func(epoch, seq int64) {
		entry := cluster.Entry(server.ClientFrame{Type: server.FrameInit, Proc: 1, Var: "x", Value: 1, Seq: seq})
		if _, err := d.conn.Write(cluster.DataFrame(key, epoch, seq, entry)); err != nil {
			t.Fatalf("write data frame: %v", err)
		}
	}

	open(5)
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 0 || m.Epoch != 5 {
		t.Fatalf("open@5 reply = %+v, want ack seq 0 epoch 5", m)
	}
	frame(5, 1)
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 1 || m.Epoch != 5 {
		t.Fatalf("frame@5 reply = %+v, want ack seq 1 epoch 5", m)
	}

	// A newer incarnation fences: the epoch-5 frame is truncated and the
	// ack restarts from zero under epoch 7.
	open(7)
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 0 || m.Epoch != 7 {
		t.Fatalf("open@7 reply = %+v, want ack seq 0 epoch 7", m)
	}
	if v := h.regs[0].Counter("hb_cluster_fences_total", "").Value(); v != 1 {
		t.Errorf("fences_total = %d, want 1", v)
	}

	// Older epochs — an open and a frame from the superseded incarnation
	// — are refused with the typed reject carrying the held epoch.
	open(6)
	if m := d.recv(); m.Type != "repl-reject" || m.Code != server.CodeStaleEpoch || m.Epoch != 7 {
		t.Fatalf("open@6 reply = %+v, want stale-epoch reject at epoch 7", m)
	}
	frame(5, 2)
	if m := d.recv(); m.Type != "repl-reject" || m.Code != server.CodeStaleEpoch || m.Epoch != 7 {
		t.Fatalf("frame@5 reply = %+v, want stale-epoch reject at epoch 7", m)
	}
	if v := h.regs[0].Counter("hb_cluster_stale_epoch_rejects_total", "").Value(); v < 2 {
		t.Errorf("stale_epoch_rejects_total = %d, want >= 2", v)
	}

	// The fenced log accepts the new incarnation's stream from seq 1.
	frame(7, 1)
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 1 || m.Epoch != 7 {
		t.Fatalf("frame@7 reply = %+v, want ack seq 1 epoch 7", m)
	}
}

// TestClusterEpochKeyReuse is the incarnation chaos test of the fencing
// protocol: kill a session's owner mid-stream so the replica promotes
// the key (epoch bump), finish the session there, then restart the dead
// ex-owner — a zombie still holding hosted state for the key at the old
// epoch. The zombie must be retroactively demoted (superseded, its local
// session tombstoned with a redirect to the live owner), a raw resume
// against it must bounce with the typed stale-epoch redirect instead of
// resurrecting the stale log, and reusing the key afterwards must run a
// fresh incarnation to a clean goodbye with verdicts untainted by the
// first session's frames.
func TestClusterEpochKeyReuse(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "epoch-reuse"
	succ := h.nodes[0].Ring().Successors(key, 2)
	ownerID, replicaID := succ[0], succ[1]
	owner, replica := h.index(ownerID), h.index(replicaID)

	// Session 1: starts on the owner, fails over to the replica when the
	// owner dies. The dial target is pinned so the reconnect lands on the
	// replica directly rather than sweeping the ring.
	var mu sync.Mutex
	target := ownerID
	cfg := clientConfig(key, nil, 11)
	cfg.Dial = func(string) (net.Conn, error) {
		mu.Lock()
		addr := target
		mu.Unlock()
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
	steps := script(1)
	sess, err := client.Dial(ownerID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true)
	deadline := time.Now().Add(5 * time.Second)
	for h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %d frames",
				h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	target = replicaID
	mu.Unlock()
	h.kls[owner].Kill()
	streamRange(sess, steps, 4, len(steps), false)
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
		t.Fatalf("replica failovers_total = %d, want 1", v)
	}

	// Restart the ex-owner. The new owner's replication link reconnects
	// and re-opens the key at the bumped epoch, which supersedes the
	// zombie's hosted state: it is still holding the epoch-1 log and must
	// drop it instead of acking frames the cluster has moved past.
	h.kls[owner].Restart()
	deadline = time.Now().Add(5 * time.Second)
	for h.regs[owner].Counter("hb_cluster_supersedes_total", "").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted ex-owner was never superseded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A resume against the restarted ex-owner must not resurrect its
	// stale copy: the tombstone answers with the typed stale-epoch
	// redirect naming the live owner.
	conn, err := net.DialTimeout("tcp", ownerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, `{"type":"resume","session":%q,"seq":0}`+"\n", key)
	sc := server.NewFrameScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no reply to zombie resume: %v", sc.Err())
	}
	var reply server.ServerFrame
	if err := json.Unmarshal(sc.Bytes(), &reply); err != nil {
		t.Fatalf("bad reply %q: %v", sc.Bytes(), err)
	}
	if reply.Type != server.FrameError || reply.Code != server.CodeStaleEpoch {
		t.Fatalf("zombie resume reply = %+v, want %s error", reply, server.CodeStaleEpoch)
	}
	if reply.Owner != replicaID {
		t.Fatalf("stale-epoch redirect owner = %q, want %q", reply.Owner, replicaID)
	}

	// Session 2 reuses the key under a fresh incarnation. Its script has
	// no AG violation, so any resurrected frame from session 1 (which
	// violates the invariant at event 6) would corrupt the verdicts — and
	// any leaked frame would inflate the goodbye count.
	steps2 := script(0)
	sess2, err := client.Dial("", clientConfig(key, h.ids, 12))
	if err != nil {
		t.Fatalf("key reuse dial: %v", err)
	}
	streamRange(sess2, steps2, 0, len(steps2), true)
	gb2, err := sess2.Close()
	if err != nil {
		t.Fatalf("key reuse close: %v", err)
	}
	if gb2.Events != len(steps2) || gb2.Dropped != 0 {
		t.Fatalf("reuse goodbye %d events (%d dropped), want %d (0)", gb2.Events, gb2.Dropped, len(steps2))
	}
	if err := verifyVerdicts(t, steps2, sess2.Latched()); err != nil {
		t.Fatalf("reused key inherited state from the dead incarnation: %v", err)
	}
	if sess2.Err() != nil {
		t.Fatalf("reuse session sticky error: %v", sess2.Err())
	}
	var eno *client.ErrNotOwner
	if errors.As(sess2.Err(), &eno) {
		t.Fatalf("reuse session hit an ownership error: %v", sess2.Err())
	}
}
