package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
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
