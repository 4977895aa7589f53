package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/computation"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sim"
)

// runCluster measures what the multi-node detection cluster costs and
// what it buys: the same streamed EF watch is ingested (a) by a plain
// single-node resumable session — the baseline, (b) by a keyed session
// on a 3-node cluster with replication factor 2 — the steady-state
// replication overhead (acks gated on the replica's durability
// watermark), and (c) by a keyed session whose home node is killed once
// half the events are in flight — the failover path, reporting the
// client's measured outage and the frames it replayed onto the replica.
// All three runs must deliver every event exactly once.
func runCluster() {
	fmt.Println("detection cluster: replication overhead and failover cost (3 nodes, 2 copies, seed 1)")
	fmt.Printf("%12s %10s %12s %12s %10s %12s %12s\n",
		"profile", "events", "ingest", "overhead", "resumes", "replayed", "outage")
	const events = 2000
	comp := sim.Random(sim.DefaultRandomConfig(4, events), 21)
	pred := "conj(x0@P1 >= 2, x0@P2 >= 2, x0@P3 >= 2)"

	var cleanDt time.Duration
	for _, tc := range []struct {
		name     string
		nodes    int
		failover bool
	}{
		{"standalone", 1, false},
		{"replicated", 3, false},
		{"failover", 3, true},
	} {
		dt, stats := clusterIngest(comp, pred, tc.nodes, tc.failover)
		if tc.name == "standalone" {
			cleanDt = dt
		}
		overhead := "baseline"
		if tc.name != "standalone" && cleanDt > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(dt)/float64(cleanDt))
		}
		fmt.Printf("%12s %10d %12s %12s %10d %12d %12s\n",
			tc.name, comp.TotalEvents(), dt.Round(time.Microsecond), overhead,
			stats.Reconnects, stats.Replayed, stats.Outage.Round(time.Microsecond))
		emit("cluster", tc.name, map[string]any{
			"events": comp.TotalEvents(), "ingest_ns": dt.Nanoseconds(),
			"reconnects": stats.Reconnects, "replayed": stats.Replayed,
			"outage_ns": stats.Outage.Nanoseconds(),
		})
	}
	runClusterDurability()
}

// runClusterDurability prices the ack-gate modes and the drain handoff:
// the same keyed ingest runs once per durability mode with the
// session's only replica bounced mid-stream (a ~60ms outage), and once
// with the owner drained mid-stream. Durable mode pays for the outage
// in stalled client acks — the max-ack-stall column — where available
// mode keeps acking and pays in the loss window instead; the handoff
// row reports what a planned node removal costs end to end (kick,
// watermark wait, epoch-bumped transfer, client redirect).
func runClusterDurability() {
	fmt.Println("\ncluster durability: ack-gate pricing across a ~60ms replica outage, and drain handoff cost")
	fmt.Printf("%16s %10s %12s %14s %12s %10s\n",
		"profile", "events", "ingest", "max ack stall", "handoff", "resumes")
	const events = 1000
	comp := sim.Random(sim.DefaultRandomConfig(4, events), 23)
	pred := "conj(x0@P1 >= 2, x0@P2 >= 2, x0@P3 >= 2)"
	for _, tc := range []struct {
		name   string
		mode   string
		outage bool
		drain  bool
	}{
		{"available", "available", true, false},
		{"durable", "durable", true, false},
		{"drain-handoff", "available", false, true},
	} {
		dt, stall, handoff, stats := durabilityIngest(comp, pred, tc.mode, tc.outage, tc.drain)
		hcol := "-"
		if tc.drain {
			hcol = handoff.Round(time.Microsecond).String()
		}
		fmt.Printf("%16s %10d %12s %14s %12s %10d\n",
			tc.name, comp.TotalEvents(), dt.Round(time.Microsecond),
			stall.Round(time.Microsecond), hcol, stats.Reconnects)
		emit("cluster-durability", tc.name, map[string]any{
			"events": comp.TotalEvents(), "ingest_ns": dt.Nanoseconds(),
			"max_ack_stall_ns": stall.Nanoseconds(), "handoff_ns": handoff.Nanoseconds(),
			"reconnects": stats.Reconnects, "replayed": stats.Replayed,
		})
	}
}

// waitLinksUp blocks until every replication link of the node reports
// connected (so a drain has a live replica to hand off to).
func waitLinksUp(node *cluster.Node) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := node.DebugState().(cluster.DebugCluster)
		up := len(st.Links) > 0
		for _, l := range st.Links {
			if !l.Connected {
				up = false
			}
		}
		if up {
			return
		}
		if time.Now().After(deadline) {
			panic("replication links never came up")
		}
		time.Sleep(time.Millisecond)
	}
}

// durabilityIngest streams comp through one keyed session (mode set via
// the hello's durability override) on a 3-node cluster. With outage set
// the key's replica is killed once half the events are in flight and
// restarted 60ms later; with drain set the key's owner is drained at
// the same point and the drain wall-clock returned. The max-ack-stall
// result is the longest interval the client's acked watermark sat still
// while frames were outstanding.
func durabilityIngest(comp *computation.Computation, pred, mode string, outage, drain bool) (time.Duration, time.Duration, time.Duration, client.Stats) {
	const n = 3
	lns := make([]net.Listener, n)
	kls := make([]*faults.KillableListener, n)
	ids := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		lns[i] = ln
		kls[i] = faults.WrapKillable(ln)
		ids[i] = ln.Addr().String()
	}
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		node, err := cluster.New(
			server.Config{Registry: obs.NewRegistry(), AckEvery: 4, IdleTimeout: 10 * time.Second},
			cluster.NodeConfig{Self: ids[i], Peers: ids, Replicas: 2, Registry: obs.NewRegistry()},
		)
		if err != nil {
			panic(err)
		}
		nodes[i] = node
		go node.Serve(kls[i]) //nolint:errcheck // closed by Shutdown
	}

	const key = "bench-durability"
	succ := nodes[0].Ring().Successors(key, 2)
	var ownerNode *cluster.Node
	var replicaKL *faults.KillableListener
	for i, id := range ids {
		if id == succ[0] {
			ownerNode = nodes[i]
		}
		if id == succ[1] {
			replicaKL = kls[i]
		}
	}

	sess, err := client.Dial("", client.Config{
		Processes:   comp.N(),
		Watches:     []server.Watch{{Op: "EF", Pred: pred}},
		Key:         key,
		Peers:       ids,
		Durability:  mode,
		Reconnect:   true,
		DialTimeout: 2 * time.Second,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: 60,
		JitterSeed:  1,
	})
	if err != nil {
		panic(err)
	}

	// Sample the acked watermark: the widest flat spot is the price the
	// gate charged the client during the outage.
	stallc := make(chan time.Duration, 1)
	stopSampling := make(chan struct{})
	go func() {
		var maxStall time.Duration
		last := sess.Acked()
		lastAt := time.Now()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				stallc <- maxStall
				return
			case <-tick.C:
				if a := sess.Acked(); a != last {
					last, lastAt = a, time.Now()
				} else if d := time.Since(lastAt); d > maxStall {
					maxStall = d
				}
			}
		}
	}()

	faultAt := comp.TotalEvents() / 2
	var handoff time.Duration
	start := time.Now()
	streamed, inits := 0, 0
	for p := 0; p < comp.N(); p++ {
		for _, name := range comp.Vars(p) {
			if v, _ := comp.Value(p, 0, name); v != 0 {
				sess.SetInitial(p, name, v)
				inits++
			}
		}
	}
	for _, e := range comp.Linearization() {
		p, sets := e.Proc, setsOf(comp, e)
		switch e.Kind {
		case computation.Internal:
			sess.Internal(p, sets)
		case computation.Send:
			sess.SendMsg(p, e.Msg, sets)
		case computation.Receive:
			sess.Receive(p, e.Msg, sets)
		}
		if streamed++; streamed == faultAt {
			switch {
			case outage:
				replicaKL.Kill()
				time.AfterFunc(60*time.Millisecond, replicaKL.Restart)
			case drain:
				// The handoff needs a live replica link holding the
				// full log; at full ingest speed the first link dial
				// may still be in flight, so wait it out.
				waitLinksUp(ownerNode)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				t0 := time.Now()
				if err := ownerNode.Drain(ctx); err != nil {
					panic(fmt.Sprintf("drain: %v", err))
				}
				handoff = time.Since(t0)
				cancel()
			}
		}
	}
	if _, err := sess.Snapshot("EF(" + pred + ")"); err != nil { // barrier: all applied
		panic(err)
	}
	// Wait out the acked watermark too (modulo the AckEvery cadence):
	// the durable gate's price is paid here — an available-mode run is
	// already caught up, a durable run rides out the replica outage.
	finalSeq := int64(inits + comp.TotalEvents())
	ackDeadline := time.Now().Add(10 * time.Second)
	for sess.Acked() < finalSeq-4 {
		if time.Now().After(ackDeadline) {
			panic(fmt.Sprintf("acked watermark stuck at %d/%d (mode=%s)", sess.Acked(), finalSeq, mode))
		}
		time.Sleep(time.Millisecond)
	}
	dt := time.Since(start)

	gb, err := sess.Close()
	if err != nil {
		panic(err)
	}
	if gb.Events != comp.TotalEvents() {
		panic(fmt.Sprintf("exactly-once violated (mode=%s outage=%v drain=%v): goodbye %d events (want %d)",
			mode, outage, drain, gb.Events, comp.TotalEvents()))
	}
	close(stopSampling)
	stall := <-stallc
	stats := sess.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	for _, node := range nodes {
		node.Shutdown(ctx) //nolint:errcheck
	}
	cancel()
	return dt, stall, handoff, stats
}

// clusterIngest streams comp through one keyed session on an n-node
// cluster (n=1 keeps the hooks installed but leaves nothing to replicate
// to, isolating the replication cost in the comparison) and returns the
// ingest wall-clock and the client's reconnect stats. With failover set,
// the session's home node is killed once half the events are in flight.
func clusterIngest(comp *computation.Computation, pred string, n int, failover bool) (time.Duration, client.Stats) {
	lns := make([]net.Listener, n)
	kls := make([]*faults.KillableListener, n)
	ids := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		lns[i] = ln
		kls[i] = faults.WrapKillable(ln)
		ids[i] = ln.Addr().String()
	}
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		node, err := cluster.New(
			server.Config{Registry: obs.NewRegistry(), AckEvery: 4, IdleTimeout: 10 * time.Second},
			cluster.NodeConfig{Self: ids[i], Peers: ids, Replicas: 2, Registry: obs.NewRegistry()},
		)
		if err != nil {
			panic(err)
		}
		nodes[i] = node
		go node.Serve(kls[i]) //nolint:errcheck // closed by Shutdown
	}

	const key = "bench-cluster"
	sess, err := client.Dial("", client.Config{
		Processes:   comp.N(),
		Watches:     []server.Watch{{Op: "EF", Pred: pred}},
		Key:         key,
		Peers:       ids,
		Reconnect:   true,
		DialTimeout: 2 * time.Second,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: 60,
		JitterSeed:  1,
	})
	if err != nil {
		panic(err)
	}

	killAt := -1
	if failover {
		killAt = comp.TotalEvents() / 2
	}
	owner := nodes[0].Ring().Owner(key)
	start := time.Now()
	streamed := 0
	for p := 0; p < comp.N(); p++ {
		for _, name := range comp.Vars(p) {
			if v, _ := comp.Value(p, 0, name); v != 0 {
				sess.SetInitial(p, name, v)
			}
		}
	}
	for _, e := range comp.Linearization() {
		p, sets := e.Proc, setsOf(comp, e)
		switch e.Kind {
		case computation.Internal:
			sess.Internal(p, sets)
		case computation.Send:
			sess.SendMsg(p, e.Msg, sets)
		case computation.Receive:
			sess.Receive(p, e.Msg, sets)
		}
		if streamed++; streamed == killAt {
			for i, id := range ids {
				if id == owner {
					kls[i].Kill()
				}
			}
		}
	}
	if _, err := sess.Snapshot("EF(" + pred + ")"); err != nil { // barrier: all applied
		panic(err)
	}
	dt := time.Since(start)
	stats := sess.Stats()

	gb, err := sess.Close()
	if err != nil {
		panic(err)
	}
	if gb.Events != comp.TotalEvents() {
		panic(fmt.Sprintf("exactly-once violated (nodes=%d failover=%v): goodbye %d events (want %d)",
			n, failover, gb.Events, comp.TotalEvents()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	for _, node := range nodes {
		node.Shutdown(ctx) //nolint:errcheck
	}
	cancel()
	return dt, stats
}
