package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// The scripted 3-process computation and its offline ground truth are
// duplicated from the server package's tests (those helpers are
// unexported test code): the cluster acceptance bar is the same —
// verdicts bit-identical to offline core.Detect at the exact determining
// prefixes — with node death and cross-node resume added on top.

type step struct {
	proc int // 0-based
	kind computation.Kind
	msg  int
	sets map[string]int
}

// script is the deterministic token-pass computation; with extra=1 the
// AG invariant conj(x@P3 <= 1) is violated at event 6.
func script(extra int) []step {
	return []step{
		{proc: 0, kind: computation.Internal, sets: map[string]int{"x": 1}},
		{proc: 0, kind: computation.Send, msg: 1},
		{proc: 1, kind: computation.Receive, msg: 1, sets: map[string]int{"x": 1}},
		{proc: 1, kind: computation.Send, msg: 2},
		{proc: 2, kind: computation.Receive, msg: 2, sets: map[string]int{"x": 1}},
		{proc: 2, kind: computation.Internal, sets: map[string]int{"x": 1 + extra}},
		{proc: 0, kind: computation.Internal, sets: map[string]int{"x": 2}},
	}
}

const (
	efPred     = "conj(x@P1 == 1, x@P2 == 1, x@P3 == 1)"
	agPred     = "conj(x@P3 <= 1)"
	stablePred = "conj(x@P3 >= 1)"
)

func watches() []server.Watch {
	return []server.Watch{
		{Op: "EF", Pred: efPred},
		{Op: "AG", Pred: agPred},
		{Op: "STABLE", Pred: stablePred},
	}
}

// buildPrefix constructs the computation of the first k scripted events.
func buildPrefix(t *testing.T, steps []step, k int) *computation.Computation {
	t.Helper()
	b := computation.NewBuilder(3)
	for p := 0; p < 3; p++ {
		b.SetInitial(p, "x", 0)
	}
	msgs := make(map[int]computation.Msg)
	for _, s := range steps[:k] {
		var e *computation.Event
		switch s.kind {
		case computation.Internal:
			e = b.Internal(s.proc)
		case computation.Send:
			var m computation.Msg
			e, m = b.Send(s.proc)
			msgs[s.msg] = m
		case computation.Receive:
			e = b.Receive(s.proc, msgs[s.msg])
		}
		for name, v := range s.sets {
			computation.Set(e, name, v)
		}
	}
	comp, err := b.Build()
	if err != nil {
		t.Fatalf("prefix %d: %v", k, err)
	}
	return comp
}

// streamRange replays steps[from:to] into a wire session, sending the
// initial values first when inits is set.
func streamRange(sess *client.Session, steps []step, from, to int, inits bool) {
	if inits {
		for p := 0; p < 3; p++ {
			sess.SetInitial(p, "x", 0)
		}
	}
	for _, s := range steps[from:to] {
		switch s.kind {
		case computation.Internal:
			sess.Internal(s.proc, s.sets)
		case computation.Send:
			sess.SendMsg(s.proc, s.msg, s.sets)
		case computation.Receive:
			sess.Receive(s.proc, s.msg, s.sets)
		}
	}
}

// exactPrefix asserts that formula evaluates to holdsAt on the first k
// scripted events and to !holdsAt on the first k-1.
func exactPrefix(t *testing.T, steps []step, k int, formula string, holdsAt bool) error {
	t.Helper()
	f := ctl.MustParse(formula)
	at, err := core.Detect(buildPrefix(t, steps, k), f)
	if err != nil {
		return err
	}
	if at.Holds != holdsAt {
		return fmt.Errorf("prefix %d: %s = %v, want %v", k, formula, at.Holds, holdsAt)
	}
	if k == 0 {
		return nil
	}
	before, err := core.Detect(buildPrefix(t, steps, k-1), f)
	if err != nil {
		return err
	}
	if before.Holds == holdsAt {
		return fmt.Errorf("prefix %d already decides %s — verdict latched late", k-1, formula)
	}
	return nil
}

// verifyVerdicts checks a finished session's latched frames against
// offline detection on the full computation: same verdicts, exact
// determining prefixes, no duplicates, no semantic errors.
func verifyVerdicts(t *testing.T, steps []step, latched []server.ServerFrame) error {
	t.Helper()
	full := buildPrefix(t, steps, len(steps))
	verdicts := make(map[int]server.ServerFrame)
	for _, fr := range latched {
		switch fr.Type {
		case server.FrameError:
			return fmt.Errorf("unexpected error frame: %s (%s)", fr.Error, fr.Code)
		case server.FrameVerdict:
			if _, dup := verdicts[fr.Watch]; dup {
				return fmt.Errorf("watch %d latched twice (replay dedupe broken)", fr.Watch)
			}
			verdicts[fr.Watch] = fr
		}
	}
	efOffline, _ := core.Detect(full, ctl.MustParse("EF("+efPred+")"))
	fr, fired := verdicts[0]
	if fired != efOffline.Holds {
		return fmt.Errorf("EF fired=%v, offline=%v", fired, efOffline.Holds)
	}
	if fired {
		if err := exactPrefix(t, steps, fr.Event, "EF("+efPred+")", true); err != nil {
			return fmt.Errorf("EF latch: %v", err)
		}
	}
	agOffline, _ := core.Detect(full, ctl.MustParse("AG("+agPred+")"))
	fr, violated := verdicts[1]
	if violated != !agOffline.Holds {
		return fmt.Errorf("AG violated=%v, offline holds=%v", violated, agOffline.Holds)
	}
	if violated {
		if err := exactPrefix(t, steps, fr.Event, "AG("+agPred+")", false); err != nil {
			return fmt.Errorf("AG latch: %v", err)
		}
	}
	fr, ok := verdicts[2]
	if !ok {
		return fmt.Errorf("STABLE watch never fired")
	}
	if fr.Event != 5 {
		return fmt.Errorf("STABLE fired at event %d, want 5", fr.Event)
	}
	return nil
}

// testCluster is a 3-node in-process detection cluster. Each node serves
// on a loopback listener wrapped in a KillableListener and dials its peers
// through killable egresses, so a test can crash it (kls); in chaos mode
// every node additionally sits behind a flaky proxy — the proxy addresses
// are the ring identities clients dial, while replication links reach the
// real listeners through the egresses via ReplTargets.
type testCluster struct {
	t       *testing.T
	nodes   []*cluster.Node
	kls     []*nodeKill
	regs    []*obs.Registry
	ids     []string
	proxies []*faults.Proxy

	stopOnce sync.Once
}

func startCluster(t *testing.T, nNodes int, chaos bool, seed int64) *testCluster {
	t.Helper()
	return startClusterMode(t, nNodes, chaos, seed, cluster.Available)
}

// startClusterMode is startCluster with an explicit node-default
// durability mode (the -cluster-durability flag of a real node); keyed
// hellos without their own override inherit it.
func startClusterMode(t *testing.T, nNodes int, chaos bool, seed int64, mode cluster.Durability) *testCluster {
	t.Helper()
	h := &testCluster{t: t}
	lns := make([]net.Listener, nNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		h.kls = append(h.kls, &nodeKill{ln: faults.WrapKillable(ln)})
		id := ln.Addr().String()
		if chaos {
			up := faults.Config{Seed: seed + int64(i), Reset: 0.02, Partial: 0.01, Drop: 0.03, Dup: 0.05, Delay: 0.10, MaxDelay: 2 * time.Millisecond}
			down := up
			down.Drop = 0 // silent downstream drops are undetectable by design
			p, err := faults.NewProxyAsym(ln.Addr().String(), up, down)
			if err != nil {
				t.Fatal(err)
			}
			h.proxies = append(h.proxies, p)
			id = p.Addr()
		}
		h.ids = append(h.ids, id)
	}
	for i := range lns {
		targets := make(map[string]string, nNodes)
		for j, id := range h.ids {
			if j != i {
				e, err := startEgress(lns[j].Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				h.kls[i].egress = append(h.kls[i].egress, e)
				targets[id] = e.Addr().String()
			}
		}
		reg := obs.NewRegistry()
		h.regs = append(h.regs, reg)
		n, err := cluster.New(
			server.Config{AckEvery: 2, IdleTimeout: 3 * time.Second, Registry: reg},
			cluster.NodeConfig{Self: h.ids[i], Peers: h.ids, Replicas: 2, ReplTargets: targets, Registry: reg, Durability: mode},
		)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		go n.Serve(h.kls[i].ln) //nolint:errcheck // closed by Shutdown
	}
	t.Cleanup(h.stop)
	return h
}

// nodeKill crashes and restarts one node of a testCluster: its listener
// and the egresses its replication links dial out through.
type nodeKill struct {
	ln     *faults.KillableListener
	egress []*egress
}

// Kill crashes the node: every connection it accepted dies, its
// replication links already up are cut, and until Restart it accepts
// none and its links cannot dial out. Without the egresses a killed
// node's links would drain what they hold, or redial and resync a
// restarted peer, behind the test's back.
func (k *nodeKill) Kill() {
	k.ln.Kill()
	for _, e := range k.egress {
		e.setDead(true)
	}
}

// Restart puts the node back in service.
func (k *nodeKill) Restart() {
	k.ln.Restart()
	for _, e := range k.egress {
		e.setDead(false)
	}
}

// KillConns is a network blip at the node: the connections it accepted
// die, and its listener stays in service.
func (k *nodeKill) KillConns() { k.ln.KillConns() }

// egress is a listener that pipes every connection it accepts to target,
// and closes it at once while dead; going dead also closes every pipe
// still open. testCluster.stop closes it.
type egress struct {
	net.Listener
	target string

	mu    sync.Mutex
	dead  bool
	conns map[net.Conn]struct{} // both ends of every open pipe
}

func startEgress(target string) (*egress, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &egress{Listener: ln, target: target, conns: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go e.pipe(conn)
		}
	}()
	return e, nil
}

func (e *egress) setDead(dead bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dead = dead
	if dead {
		for c := range e.conns {
			c.Close()
		}
	}
}

// track registers c as an open pipe end, or reports false while dead.
func (e *egress) track(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return false
	}
	e.conns[c] = struct{}{}
	return true
}

func (e *egress) untrack(c net.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.conns, c)
}

// pipe copies bytes both ways between conn and a new connection to
// target until either side closes or the egress goes dead, then closes
// both.
func (e *egress) pipe(conn net.Conn) {
	defer conn.Close()
	if !e.track(conn) {
		return
	}
	defer e.untrack(conn)
	up, err := net.DialTimeout("tcp", e.target, 2*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	if !e.track(up) {
		return
	}
	defer e.untrack(up)
	go func() {
		io.Copy(up, conn) //nolint:errcheck // either side closing ends the pipe
		up.Close()
		conn.Close()
	}()
	io.Copy(conn, up) //nolint:errcheck // either side closing ends the pipe
}

// stop shuts the whole cluster down (idempotent; also registered as the
// test cleanup so every path winds down).
func (h *testCluster) stop() {
	h.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i, n := range h.nodes {
			if err := n.Shutdown(ctx); err != nil {
				h.t.Errorf("shutdown node %d: %v", i, err)
			}
		}
		for _, p := range h.proxies {
			p.Close()
		}
		for _, k := range h.kls {
			for _, e := range k.egress {
				e.Close()
			}
		}
	})
}

// waitReplicated waits until every key's hosted log is non-empty and
// another node's replica log holds the same entries. The host is
// normally the key's owner, but a client whose connection the proxy
// reset may have resumed on a replica and moved the session there. A
// frame the proxy dropped on its way to the host is still in the
// client's outbox, unacknowledged, and is sent again after the kill.
func waitReplicated(t *testing.T, h *testCluster, keys []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, key := range keys {
		for !replicated(h, key) {
			if time.Now().After(deadline) {
				t.Errorf("session %s: no replica log caught up with its hosted log", key)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func replicated(h *testCluster, key string) bool {
	for i, host := range h.nodes {
		if hosted, _ := host.Logs(key); len(hosted) > 0 {
			for j, node := range h.nodes {
				if _, replica := node.Logs(key); j != i && slices.EqualFunc(replica, hosted, bytes.Equal) {
					return true
				}
			}
		}
	}
	return false
}

// index returns the node slot of a ring identity.
func (h *testCluster) index(id string) int {
	for i, v := range h.ids {
		if v == id {
			return i
		}
	}
	h.t.Fatalf("identity %q not in cluster %v", id, h.ids)
	return -1
}

// clientConfig is the ring-aware base config the cluster tests share.
func clientConfig(key string, peers []string, jitter int64) client.Config {
	return client.Config{
		Processes:   3,
		Watches:     watches(),
		Key:         key,
		Peers:       peers,
		Reconnect:   true,
		DialTimeout: 500 * time.Millisecond,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: 60,
		JitterSeed:  jitter,
	}
}

// TestClusterPlacementAndRedirect: a keyed hello lands on the key's
// owner, replicates to exactly the ring successor, and a node outside
// the key's placement rejects the hello with a typed not-owner redirect
// naming the owner.
func TestClusterPlacementAndRedirect(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	key := "placement-alpha"
	succ := h.nodes[0].Ring().Successors(key, 3)
	owner, replica, outside := succ[0], succ[1], succ[2]

	// A single-address keyed client pointed at the non-placement node is
	// rejected with the typed redirect (satellite: ErrNotOwner surfaces
	// through errors.As with the owner to dial).
	cfg := clientConfig(key, nil, 1)
	_, err := client.Dial(outside, cfg)
	if err == nil {
		t.Fatalf("keyed hello on non-placement node %s succeeded", outside)
	}
	var eno *client.ErrNotOwner
	if !errors.As(err, &eno) {
		t.Fatalf("hello rejection is not ErrNotOwner: %v", err)
	}
	if eno.Owner != owner {
		t.Fatalf("redirect owner = %q, want %q", eno.Owner, owner)
	}
	if v := h.regs[h.index(outside)].Counter("hb_cluster_redirects_total", "").Value(); v == 0 {
		t.Errorf("non-placement node counted no redirects")
	}

	// The ring-aware client opens on the owner and the whole session —
	// hello through bye — replicates to the successor.
	steps := script(1)
	sess, err := client.Dial("", clientConfig(key, h.ids, 2))
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, len(steps), true)
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

	// 3 inits + 7 events + 1 bye, replicated once each to the successor.
	wantFrames := int64(len(steps)) + 4
	replicaReg := h.regs[h.index(replica)]
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := replicaReg.Counter("hb_cluster_repl_frames_recv_total", "").Value(); v >= wantFrames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s received %d frames, want %d", replica,
				replicaReg.Counter("hb_cluster_repl_frames_recv_total", "").Value(), wantFrames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := h.regs[h.index(outside)].Counter("hb_cluster_repl_frames_recv_total", "").Value(); v != 0 {
		t.Errorf("non-placement node received %d replication frames, want 0", v)
	}
	if v := h.regs[h.index(owner)].Counter("hb_cluster_repl_frames_sent_total", "").Value(); v < wantFrames {
		t.Errorf("owner sent %d replication frames, want >= %d", v, wantFrames)
	}
}

// TestClusterFailoverDeterministic kills a session's home node
// mid-stream (no network faults, so the schedule is exact) and asserts
// the client resumes on the replica, finishes the computation there, and
// latches verdicts bit-identical to offline detection.
func TestClusterFailoverDeterministic(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	key := "det-failover"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])
	steps := script(1)

	sess, err := client.Dial("", clientConfig(key, h.ids, 3))
	if err != nil {
		t.Fatal(err)
	}
	streamRange(sess, steps, 0, 4, true) // 3 inits + 4 events

	// Wait until the replica holds everything streamed so far: the kill
	// must test recovery, not the availability-over-durability window of
	// a session whose replica link is still dialing.
	deadline := time.Now().Add(5 * time.Second)
	for h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %d frames",
				h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value())
		}
		time.Sleep(2 * time.Millisecond)
	}

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
	if st := sess.Stats(); st.Reconnects == 0 {
		t.Errorf("session finished without reconnecting despite the owner dying")
	}
	if v := h.regs[replica].Counter("hb_cluster_failovers_total", "").Value(); v != 1 {
		t.Errorf("replica failovers_total = %d, want 1", v)
	}
}

// TestClusterResumeNotOwnerTyped is the client regression test for the
// typed not-owner rejection on the resume path: a single-address client
// whose reconnect lands on a non-placement node fails sticky with an
// error that unwraps to ErrNotOwner carrying the owner's address.
func TestClusterResumeNotOwnerTyped(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	key := "resume-redirect"
	succ := h.nodes[0].Ring().Successors(key, 3)
	owner, outside := succ[0], succ[2]

	var mu sync.Mutex
	target := owner
	cfg := clientConfig(key, nil, 4)
	cfg.MaxAttempts = 6
	cfg.Dial = func(string) (net.Conn, error) {
		mu.Lock()
		addr := target
		mu.Unlock()
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
	sess, err := client.Dial(owner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := script(0)
	streamRange(sess, steps, 0, 2, true)

	// Point every future dial at the non-placement node, then crash the
	// owner: the resume is rejected with the redirect, and a
	// single-address session cannot follow it.
	mu.Lock()
	target = outside
	mu.Unlock()
	h.kls[h.index(owner)].Kill()

	select {
	case <-sess.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session did not fail after redirect rejection")
	}
	var eno *client.ErrNotOwner
	if !errors.As(sess.Err(), &eno) {
		t.Fatalf("sticky error is not ErrNotOwner: %v", sess.Err())
	}
	if eno.Owner != owner {
		t.Fatalf("redirect owner = %q, want %q", eno.Owner, owner)
	}
}

// chaosSeeds mirrors the server chaos harness: HB_CHAOS_SEEDS sweeps a
// matrix in CI; the default keeps local runs fast but still seeded.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	spec := os.Getenv("HB_CHAOS_SEEDS")
	if spec == "" {
		spec = "1,7"
	}
	var seeds []int64
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("HB_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// durabilityModes mirrors chaosSeeds for the ack-gate axis of the chaos
// matrix: HB_CLUSTER_DURABILITY selects which modes CI sweeps; the
// default runs both.
func durabilityModes(t *testing.T) []cluster.Durability {
	t.Helper()
	spec := os.Getenv("HB_CLUSTER_DURABILITY")
	if spec == "" {
		spec = "available,durable"
	}
	var modes []cluster.Durability
	for _, s := range strings.Split(spec, ",") {
		m, err := cluster.ParseDurability(strings.TrimSpace(s))
		if err != nil {
			t.Fatalf("HB_CLUSTER_DURABILITY: %v", err)
		}
		modes = append(modes, m)
	}
	return modes
}

// TestClusterChaosFailover is the cluster acceptance test: keyed
// sessions stream through flaky proxies at a 3-node cluster with
// replication factor 2; mid-stream their common home node is killed and
// never comes back. Every session must fail over to its replica and
// latch exactly the verdicts of offline core.Detect at the exact
// determining prefixes, and no goroutine may leak. The matrix runs both
// durability modes: in durable mode the promoted sessions finish with
// their ack gate stalled on the dead ex-owner (their new replica set
// contains it), which must degrade acks — never verdicts or the
// goodbye.
func TestClusterChaosFailover(t *testing.T) {
	for _, mode := range durabilityModes(t) {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("durability=%s/seed=%d", mode, seed),
				func(t *testing.T) { runClusterChaos(t, seed, mode) })
		}
	}
}

func runClusterChaos(t *testing.T, seed int64, mode cluster.Durability) {
	baseline := runtime.NumGoroutine()
	h := startClusterMode(t, 3, true, seed, mode)

	// Every session's key is owned by the victim node, so one kill takes
	// out every session's home mid-stream.
	const sessions = 8
	victim := 0
	var keys []string
	for j := 0; len(keys) < sessions; j++ {
		k := fmt.Sprintf("chaos-%d-%d", seed, j)
		if h.nodes[0].Ring().Owner(k) == h.ids[victim] {
			keys = append(keys, k)
		}
	}

	var wg sync.WaitGroup
	var ready sync.WaitGroup
	ready.Add(sessions)
	killed := make(chan struct{})
	errs := make(chan error, sessions*2)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
	var mu sync.Mutex
	var reconnects, replayed, goodbyes int

	for i, key := range keys {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			signalled := false
			signal := func() {
				if !signalled {
					signalled = true
					ready.Done()
				}
			}
			defer signal()
			steps := script(i % 2)
			cfg := clientConfig(key, h.ids, seed+int64(i))
			cfg.DialTimeout = 300 * time.Millisecond
			var sess *client.Session
			var derr error
			for try := 0; try < 10; try++ {
				if sess, derr = client.Dial("", cfg); derr == nil {
					break
				}
			}
			if derr != nil {
				fail("session %d: dial never succeeded: %v", i, derr)
				return
			}
			streamRange(sess, steps, 0, 4, true)
			signal()
			<-killed
			streamRange(sess, steps, 4, len(steps), false)
			gb, cerr := sess.Close()
			if cerr != nil && gb == nil {
				// Tolerated: the goodbye itself can be lost after the
				// session is already over server-side; verdicts are
				// verified below regardless.
				t.Logf("session %d: close without goodbye: %v", i, cerr)
			} else if cerr != nil {
				fail("session %d: close: %v", i, cerr)
				return
			}
			if gb != nil {
				if gb.Events != len(steps) || gb.Dropped != 0 {
					fail("session %d: goodbye %d events (%d dropped), want %d (0)", i, gb.Events, gb.Dropped, len(steps))
				}
				mu.Lock()
				goodbyes++
				mu.Unlock()
			}
			st := sess.Stats()
			mu.Lock()
			reconnects += st.Reconnects
			replayed += st.Replayed
			mu.Unlock()
			if err := verifyVerdicts(t, steps, sess.Latched()); err != nil {
				fail("session %d: %v", i, err)
			}
		}(i, key)
	}

	ready.Wait()
	// The kill is a crash: the victim's links are cut with it, so first
	// let every session's replica log catch up with its hosted log.
	waitReplicated(t, h, keys)
	h.kls[victim].Kill()
	close(killed)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var failovers, redirects, resyncs, dropped, degraded int64
	for _, reg := range h.regs {
		failovers += reg.Counter("hb_cluster_failovers_total", "").Value()
		redirects += reg.Counter("hb_cluster_redirects_total", "").Value()
		resyncs += reg.Counter("hb_cluster_repl_resyncs_total", "").Value()
		dropped += reg.Counter("hb_server_events_dropped_total", "").Value()
		degraded += reg.Gauge("hb_cluster_degraded_sessions", "").Value()
	}
	if failovers == 0 {
		t.Errorf("no session was promoted from a replica log despite the owner dying")
	}
	if dropped != 0 {
		t.Errorf("events_dropped_total = %d on resumable sessions, want 0", dropped)
	}
	if mode == cluster.Durable && degraded == 0 {
		// The promoted sessions replicate back to the dead victim; with a
		// durable gate they must finish degraded, not quietly ack an
		// unreplicated tail.
		t.Errorf("durable mode: no session reported degraded despite the victim staying dead")
	}
	t.Logf("seed %d (%s): %d failovers, %d redirects, %d link resyncs, %d reconnects, %d frames replayed, %d/%d goodbyes, %d degraded",
		seed, mode, failovers, redirects, resyncs, reconnects, replayed, goodbyes, sessions, degraded)

	h.stop()

	// Zero goroutine leaks: monitor loops, link goroutines, proxy pumps,
	// readers and reconnect loops must all have wound down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) //nolint:errcheck
			t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
