package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// TestClusterDrainHandoff is the planned-removal counterpart of the
// failover tests: draining a node mid-session transfers the hosted
// frame log to its replica under a bumped epoch, the kicked client
// follows the stale-epoch redirect to the new owner, and killing the
// drained node afterwards disturbs nothing — zero loss, zero resumes
// against the corpse, verdicts bit-identical to offline detection. The
// transfer is an adoption, not a crash promotion, so the failover
// counter must stay at zero. It runs under each durability mode of the
// chaos matrix: the goodbye must account for every event either way.
func TestClusterDrainHandoff(t *testing.T) {
	for _, mode := range durabilityModes(t) {
		t.Run("durability="+mode.String(), func(t *testing.T) { runDrainHandoff(t, mode) })
	}
}

func runDrainHandoff(t *testing.T, mode cluster.Durability) {
	h := startClusterMode(t, 3, false, 0, mode)
	const key = "drain-handoff"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	steps := script(1)

	sess, err := client.Dial("", clientConfig(key, h.ids, 31))
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

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.nodes[owner].Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := h.regs[owner].Counter("hb_cluster_handoffs_total", "").Value(); v != 1 {
		t.Errorf("handoffs_total = %d, want 1", v)
	}
	if err := h.nodes[owner].Drain(ctx); err != nil {
		t.Errorf("second drain not idempotent: %v", err)
	}

	// The drained node is now disposable: kill it and finish the session
	// on the adopting replica.
	h.kls[owner].Kill()
	streamRange(sess, steps, 4, len(steps), false)
	gb, err := sess.Close()
	if err != nil {
		t.Fatalf("close after handoff: %v", err)
	}
	if gb.Events != len(steps) || gb.Dropped != 0 {
		t.Fatalf("goodbye %d events (%d dropped), want %d (0)", gb.Events, gb.Dropped, len(steps))
	}
	if err := verifyVerdicts(t, steps, sess.Latched()); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Reconnects == 0 {
		t.Errorf("client finished without reconnecting despite being kicked off the drained node")
	}
	if v := h.regs[replica].Counter("hb_cluster_failovers_total", "").Value(); v != 0 {
		t.Errorf("failovers_total = %d on the adopting replica, want 0 (handoff is not a crash promotion)", v)
	}
}

// TestClusterDrainNoLiveReplica: a drain with no live replica to adopt
// the session must fail loudly and leave the session hosted — the
// client keeps streaming undisturbed, and the ordinary failover path
// still covers the node if it dies anyway.
func TestClusterDrainNoLiveReplica(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "drain-no-replica"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	steps := script(0)

	sess, err := client.Dial("", clientConfig(key, h.ids, 32))
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true)

	// Take the only replica down and wait until the owner's link notices.
	h.kls[replica].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := h.nodes[owner].DebugState().(cluster.DebugCluster)
		down := false
		for _, l := range st.Links {
			if l.Peer == h.ids[replica] && !l.Connected {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner link to the killed replica still reported connected")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err = h.nodes[owner].Drain(ctx)
	if err == nil {
		t.Fatal("drain with no live replica reported success")
	}
	if !strings.Contains(err.Error(), "no live replica") {
		t.Fatalf("drain error = %v, want a no-live-replica explanation", err)
	}
	if v := h.regs[owner].Counter("hb_cluster_handoffs_total", "").Value(); v != 0 {
		t.Errorf("handoffs_total = %d after a failed drain, want 0", v)
	}

	// The session stayed hosted and attached; it finishes normally.
	streamRange(sess, steps, 4, len(steps), false)
	gb, err := sess.Close()
	if err != nil {
		t.Fatalf("close after failed drain: %v", err)
	}
	if gb.Events != len(steps) || gb.Dropped != 0 {
		t.Fatalf("goodbye %d events (%d dropped), want %d (0)", gb.Events, gb.Dropped, len(steps))
	}
	if err := verifyVerdicts(t, steps, sess.Latched()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainHandoffNewOwnerOpensFirst: the adopting replica replicates the
// session it adopted back to the draining node over its own link, and
// that repl-open can reach the draining node before the handoff-ack
// does. It names the handoff's target and epoch, so it is the adoption
// itself: the drain must succeed and count one handoff. The replica is a
// fake that sends the open and reads its answer before it acks the
// handoff, the order that failed TestClusterDrainHandoff now and then.
func TestDrainHandoffNewOwnerOpensFirst(t *testing.T) {
	ownerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replicaLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer replicaLn.Close()
	owner, replica := ownerLn.Addr().String(), replicaLn.Addr().String()
	reg := obs.NewRegistry()
	node, err := cluster.New(
		server.Config{AckEvery: 2, Registry: obs.NewRegistry()},
		cluster.NodeConfig{Self: owner, Peers: []string{owner, replica}, Replicas: 2, Registry: reg},
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
		if k := fmt.Sprintf("drain-open-first-%d", i); node.Ring().Successors(k, 2)[0] == owner {
			key = k
		}
	}

	acked := make(chan struct{}, 1)
	adopted := make(chan error, 1)
	go func() { adopted <- fakeAdopter(replicaLn, owner, replica, key, acked) }()

	r, _ := dialRawSession(t, owner, server.ClientFrame{Type: server.FrameHello, Processes: 2, Session: key, Resumable: true})
	r.send(server.ClientFrame{Type: server.FrameInit, Proc: 1, Var: "x", Value: 1, Seq: 1}, false)
	select {
	case <-acked:
	case err := <-adopted:
		t.Fatalf("fake replica quit before the first frame: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("the first frame never reached the replica")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := node.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-adopted; err != nil {
		t.Fatalf("fake replica: %v", err)
	}
	if v := reg.Counter("hb_cluster_handoffs_total", "").Value(); v != 1 {
		t.Errorf("handoffs_total = %d, want 1", v)
	}
}

// fakeAdopter plays the replica of one session: it acks the owner's open
// and every data frame (signalling acked after the first), and answers
// the handoff offer by first opening the adopted incarnation on its own
// link to the owner, waiting for the reply, and only then sending the
// handoff-ack.
func fakeAdopter(ln net.Listener, owner, self, key string, acked chan<- struct{}) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	sc := server.NewFrameScanner(conn)
	if !sc.Scan() { // the repl-hello
		return fmt.Errorf("link closed before its hello: %v", sc.Err())
	}
	if _, err := conn.Write([]byte(`{"type":"repl-welcome"}` + "\n")); err != nil {
		return err
	}
	ack := func(seq, epoch int64) error {
		_, err := fmt.Fprintf(conn, `{"type":"repl-ack","session":%q,"seq":%d,"epoch":%d}`+"\n", key, seq, epoch)
		return err
	}
	var (
		hello json.RawMessage
		epoch int64
		seq   int64
	)
	for sc.Scan() {
		if sc.Binary() {
			seq++
			if err := ack(seq, epoch); err != nil {
				return err
			}
			if seq == 1 {
				acked <- struct{}{}
			}
			continue
		}
		var m wireMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return err
		}
		switch m.Type {
		case "repl-open":
			hello, epoch = m.Hello, m.Epoch
			if err := ack(seq, epoch); err != nil {
				return err
			}
		case "repl-handoff":
			back, err := net.DialTimeout("tcp", owner, 2*time.Second)
			if err != nil {
				return err
			}
			defer back.Close()
			back.SetDeadline(time.Now().Add(10 * time.Second))
			bsc := server.NewFrameScanner(back)
			fmt.Fprintf(back, `{"type":"repl-hello","from":%q}`+"\n", self)
			if !bsc.Scan() {
				return fmt.Errorf("owner closed the back link before its welcome: %v", bsc.Err())
			}
			fmt.Fprintf(back, `{"type":"repl-open","session":%q,"epoch":%d,"hello":%s}`+"\n", key, m.Epoch, hello)
			if !bsc.Scan() {
				return fmt.Errorf("owner closed the back link before answering the open: %v", bsc.Err())
			}
			_, err = fmt.Fprintf(conn, `{"type":"repl-handoff-ack","session":%q,"epoch":%d}`+"\n", key, m.Epoch)
			return err
		}
	}
	return errors.Join(errors.New("link closed before the handoff offer"), sc.Err())
}
