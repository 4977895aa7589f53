package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Self is this node's ring identity — the address peers and clients
	// know it by. It must appear in Peers.
	Self string
	// Peers is the full static cluster membership, including Self. Every
	// node and every ring-aware client must be configured with the same
	// set (order does not matter; the ring sorts).
	Peers []string
	// Replicas is the total number of copies of each session's frame log,
	// the owner included (default 2: owner + one replica). Clamped to the
	// cluster size.
	Replicas int
	// Seed is the placement seed (default DefaultRingSeed). All nodes and
	// clients must agree on it. It also decorrelates the replication
	// links' reconnect jitter across clusters.
	Seed uint64
	// Durability is the node's default ack-gate mode for hosted sessions
	// (-cluster-durability); a hello may override it per session. See the
	// Durability type for the available/durable tradeoff.
	Durability Durability
	// ReplTargets optionally maps a peer's ring identity to the address
	// replication links actually dial. The cluster chaos harness routes
	// client traffic through flaky proxies (the proxy addresses are the
	// ring identities) while replication dials the real listeners, so a
	// simulated network fault can never make the durability watermark lie.
	// Unlisted peers are dialed by their ring identity.
	ReplTargets map[string]string
	// Registry receives the hb_cluster_* metrics (nil → obs.Default()).
	Registry *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// hostedSession is the replication state of one keyed session this node
// hosts: the keyed hello plus every accepted sequenced frame from seq 1,
// in order — log[i] is the encoded entry (wire.go) of seq i+1. This is
// deliberately the full frame log: a replica rebuilds the session by
// replaying it through the same deterministic monitor pipeline, which is
// what makes post-failover verdicts bit-identical. The log lives for the
// session's lifetime and is released once every replica has acknowledged
// its bye.
type hostedSession struct {
	key      string
	hello    server.ClientFrame
	log      [][]byte
	header   []byte     // data-frame header of this incarnation (key, epoch)
	replicas []string   // ring successors holding copies (self excluded)
	epoch    int64      // this incarnation's fencing epoch, minted at registration
	mode     Durability // resolved ack-gate mode; travels in hello.Durability
	durable  int64      // highest seq acked by every gating replica, monotonic
	bye      bool       // log ends in a bye; drop once durable covers it
	degraded bool       // durable mode with a replica down: client acks stalled
	stalled  time.Time  // when degraded last became true
	handoff  *handoffState
}

// replicaLog is a foreign session's replicated state on this node,
// fenced by the incarnation epoch its feeder announced.
type replicaLog struct {
	key   string
	hello server.ClientFrame
	log   [][]byte // entries exactly as the owner encoded them
	epoch int64
	// feeder is the inbound connection currently feeding this log (nil
	// once it drops) and from its announced ring identity. Only the
	// feeder's frames append — any other connection's frames are acked
	// without being applied — so a superseded ex-owner can never fork
	// the log.
	feeder net.Conn
	from   string
}

// Node is one member of a detection cluster: a standalone *server.Server
// plus the placement ring, the outgoing replication links for sessions
// it hosts, the replica logs it holds for peers, and the recovery path
// that turns a replica log back into a live session after the home node
// dies.
type Node struct {
	srv        *server.Server
	ring       *Ring
	self       string
	r          int // replication factor (total copies)
	seed       uint64
	durability Durability
	dial       map[string]string
	met        *metrics
	logf       func(format string, args ...any)

	stopc chan struct{}  // closed by Shutdown; unblocks link backoff sleeps
	wg    sync.WaitGroup // link goroutines

	encoders sync.Pool // *entryEncoder scratch; onAccept encodes outside mu

	// mu guards everything below plus all peerLink state; cond is
	// broadcast whenever new frames are appended, replica acks advance,
	// a link's connectivity changes, or the node closes — the send loops
	// and the drain handoff wait on it.
	mu         sync.Mutex
	cond       *sync.Cond
	hosted     map[string]*hostedSession
	replicated map[string]*replicaLog
	epochs     map[string]int64 // per-key incarnation high-water (every epoch seen)
	links      map[string]*peerLink
	promoting  map[string]chan struct{} // in-flight recoveries, keyed by session
	inbound    map[net.Conn]struct{}    // live inbound replication conns, closed on Shutdown
	draining   bool                     // Drain started: no new placements, no promotions
	closed     bool
}

// New builds a cluster node: it installs the cluster hooks into srvCfg
// and constructs the underlying server. The caller serves connections
// via Serve (or the returned Server directly) and shuts down via
// Shutdown.
func New(srvCfg server.Config, nc NodeConfig) (*Node, error) {
	ring, err := NewRing(nc.Peers, seedOrDefault(nc.Seed))
	if err != nil {
		return nil, err
	}
	if nc.Self == "" || !ring.Contains(nc.Self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", nc.Self, ring.Nodes())
	}
	r := nc.Replicas
	if r <= 0 {
		r = 2
	}
	if r > len(ring.Nodes()) {
		r = len(ring.Nodes())
	}
	n := &Node{
		ring:       ring,
		self:       nc.Self,
		r:          r,
		seed:       seedOrDefault(nc.Seed),
		durability: nc.Durability,
		dial:       nc.ReplTargets,
		met:        newMetrics(nc.Registry),
		logf:       nc.Logf,
		stopc:      make(chan struct{}),
		hosted:     make(map[string]*hostedSession),
		replicated: make(map[string]*replicaLog),
		epochs:     make(map[string]int64),
		links:      make(map[string]*peerLink),
		promoting:  make(map[string]chan struct{}),
		inbound:    make(map[net.Conn]struct{}),
	}
	n.encoders.New = func() any { return new(entryEncoder) }
	n.cond = sync.NewCond(&n.mu)
	n.met.ringNodes.Set(int64(len(ring.Nodes())))
	srvCfg.Cluster = &server.ClusterHooks{
		Takeover:  n.takeover,
		Placement: n.placement,
		OnOpen:    n.onOpen,
		OnAccept:  n.onAccept,
		AckGate:   n.ackGate,
		Recover:   n.recoverSession,
		Resume:    n.vetoResume,
	}
	n.srv = server.New(srvCfg)
	return n, nil
}

func seedOrDefault(seed uint64) uint64 {
	if seed == 0 {
		return DefaultRingSeed
	}
	return seed
}

// Server returns the underlying detection server.
func (n *Node) Server() *server.Server { return n.srv }

// Ring returns the node's placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's ring identity.
func (n *Node) Self() string { return n.self }

// Serve accepts connections on ln — client ingest and replication links
// share it; the takeover hook separates them by their first line.
func (n *Node) Serve(ln net.Listener) error { return n.srv.Serve(ln) }

// Shutdown stops the replication links, then drains the server.
func (n *Node) Shutdown(ctx context.Context) error {
	n.mu.Lock()
	n.closed = true
	links := make([]*peerLink, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.cond.Broadcast()
	n.mu.Unlock()
	close(n.stopc)
	for _, l := range links {
		l.shut()
	}
	// Inbound links belong to peers that may outlive this node; closing
	// them here unblocks the server's connection handlers so its drain
	// can finish.
	for _, c := range inbound {
		c.Close()
	}
	err := n.srv.Shutdown(ctx)
	n.wg.Wait()
	return err
}

func (n *Node) log(format string, args ...any) {
	if n.logf != nil {
		n.logf(format, args...)
	}
}

// observeEpochLocked raises the node's per-key epoch high-water mark.
// Caller holds n.mu.
func (n *Node) observeEpochLocked(key string, epoch int64) {
	if epoch > n.epochs[key] {
		n.epochs[key] = epoch
	}
}

// mintEpochLocked mints the next incarnation epoch for key: one past
// every epoch this node has seen for it (and past atLeast — callers pass
// a replica log's epoch so a promotion always supersedes the log it
// replays). Caller holds n.mu.
func (n *Node) mintEpochLocked(key string, atLeast int64) int64 {
	e := n.epochs[key]
	if atLeast > e {
		e = atLeast
	}
	e++
	n.epochs[key] = e
	return e
}

// takeover is the server's connection-takeover hook: replication links
// announce themselves with a repl-hello line and are served in place.
func (n *Node) takeover(first []byte, conn net.Conn) bool {
	if !isReplHello(first) {
		return false
	}
	m, err := decodeReplMsg(first)
	if err != nil {
		return false
	}
	n.serveRepl(m.From, conn)
	return true
}

// placement vets a keyed hello: any of the key's R placement nodes may
// accept it (so opening against a replica works while the owner is
// down); everyone else redirects to the owner. A draining node stops
// accepting new placements and points the client at the first live
// alternative.
func (n *Node) placement(key string) (owner string, ok bool) {
	succ := n.ring.Successors(key, n.r)
	n.mu.Lock()
	draining := n.draining
	n.mu.Unlock()
	for _, s := range succ {
		if s == n.self {
			if draining {
				if alt := firstOther(succ, n.self); alt != "" {
					n.met.redirects.Inc()
					return alt, false
				}
			}
			return succ[0], true
		}
	}
	n.met.redirects.Inc()
	return succ[0], false
}

// firstOther returns the first entry of succ that is not self ("" if
// none).
func firstOther(succ []string, self string) string {
	for _, s := range succ {
		if s != self {
			return s
		}
	}
	return ""
}

// onOpen registers a freshly opened keyed session for replication and
// wakes the links to its ring successors. The session's durability mode
// is resolved here — hello override, else the node default — and stamped
// into the replicated hello so failover and handoff preserve it.
func (n *Node) onOpen(sess *server.Session, cfg server.SessionConfig) {
	mode := n.durability
	if m, err := ParseDurability(cfg.Durability); err == nil && cfg.Durability != "" {
		mode = m
	}
	hello := server.ClientFrame{
		Type:       server.FrameHello,
		Processes:  cfg.Processes,
		Watches:    cfg.Watches,
		Resumable:  true,
		Bounded:    cfg.Bounded,
		Session:    cfg.ID,
		Durability: mode.String(),
	}
	n.mu.Lock()
	epoch := n.mintEpochLocked(cfg.ID, 0)
	n.mu.Unlock()
	n.registerHosted(&hostedSession{key: cfg.ID, hello: hello, epoch: epoch, mode: mode})
}

// registerHosted installs (or replaces) the hosted replication state for
// hs.key — a new incarnation under hs.epoch; the caller fills key, hello,
// log, bye, epoch and mode — and ensures links to its replicas exist. Any
// replica log or stale per-link cursors left by a previous incarnation of
// the key are cleared: a reused key must start from a clean slate, or an
// old racked watermark could open the ack gate for frames the replicas
// never saw.
func (n *Node) registerHosted(hs *hostedSession) {
	for _, s := range n.ring.Successors(hs.key, n.r) {
		if s != n.self {
			hs.replicas = append(hs.replicas, s)
		}
	}
	hs.header = appendFrameHeader(nil, hs.key, hs.epoch)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.observeEpochLocked(hs.key, hs.epoch)
	if old := n.hosted[hs.key]; old != nil {
		n.dropHostedLocked(old)
	}
	n.forgetCursorsLocked(hs.key) // even with no old state: a late ack may have planted one
	n.hosted[hs.key] = hs
	n.met.sessionsOwned.Set(int64(len(n.hosted)))
	n.met.replLag.Add(int64(len(hs.log)))
	if _, held := n.replicated[hs.key]; held {
		delete(n.replicated, hs.key)
		n.met.sessionsReplicated.Set(int64(len(n.replicated)))
	}
	for _, peer := range hs.replicas {
		n.ensureLinkLocked(peer)
	}
	n.refreshDegradedLocked(hs)
	n.cond.Broadcast()
	n.mu.Unlock()
	n.log("cluster: hosting %s epoch %d (%s, replicas %v, backlog %d)", hs.key, hs.epoch, hs.mode, hs.replicas, len(hs.log))
}

// dropHostedLocked removes hs from the hosted set together with every
// link's cursors for its key, and takes its share out of the lag and
// degraded gauges. Caller holds n.mu.
func (n *Node) dropHostedLocked(hs *hostedSession) {
	delete(n.hosted, hs.key)
	n.met.sessionsOwned.Set(int64(len(n.hosted)))
	n.met.replLag.Add(hs.durable - int64(len(hs.log)))
	if hs.degraded {
		n.met.degradedSessions.Add(-1)
	}
	n.forgetCursorsLocked(hs.key)
}

// forgetCursorsLocked clears every link's send and ack cursors for key.
// Caller holds n.mu.
func (n *Node) forgetCursorsLocked(key string) {
	for _, l := range n.links {
		delete(l.racked, key)
		delete(l.sent, key)
		delete(l.opened, key)
	}
}

// onAccept encodes one accepted sequenced frame, appends the entry to the
// session's log and wakes the links. Frames arrive in seq order from the
// single attached transport; a frame re-accepted after a promotion race
// is deduped by seq. The encoding happens outside n.mu.
func (n *Node) onAccept(sess *server.Session, f server.ClientFrame) {
	key := sess.ID()
	n.mu.Lock()
	hs := n.hosted[key]
	n.mu.Unlock()
	if hs == nil {
		return // unkeyed session
	}
	enc := n.encoders.Get().(*entryEncoder)
	entry := enc.encode(f)
	n.encoders.Put(enc)

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hosted[key] != hs || f.Seq != int64(len(hs.log))+1 {
		return // superseded meanwhile, or a duplicate past the log's high water
	}
	hs.log = append(hs.log, entry)
	if f.Type == server.FrameBye {
		hs.bye = true
	}
	// The lag gauge moves by delta — here, where the durability watermark
	// advances, and when a session is dropped — never by walking hosted.
	n.met.replLag.Add(1)
	n.cond.Broadcast()
}

// advanceDurableLocked raises hs's durability watermark to d, if that
// is an advance. Caller holds n.mu.
func (n *Node) advanceDurableLocked(hs *hostedSession, d int64) bool {
	if d <= hs.durable {
		return false
	}
	n.met.replLag.Add(hs.durable - d)
	hs.durable = d
	return true
}

// refreshDegradedLocked recomputes whether hs is running degraded — a
// durable-mode session with a replica link down, so its client acks are
// stalled at the outage watermark — and moves the gauge on a change.
// Caller holds n.mu.
func (n *Node) refreshDegradedLocked(hs *hostedSession) {
	degraded := false
	if hs.mode == Durable {
		for _, peer := range hs.replicas {
			if l := n.links[peer]; l == nil || !l.connected {
				degraded = true
				break
			}
		}
	}
	switch {
	case degraded && !hs.degraded:
		hs.stalled = time.Now()
		n.met.degradedSessions.Add(1)
	case !degraded && hs.degraded:
		hs.stalled = time.Time{}
		n.met.degradedSessions.Add(-1)
	}
	hs.degraded = degraded
}

// linkChangedLocked re-evaluates every hosted session after a link's
// connectivity changed — the only event, besides registration, that can
// change a session's degraded state, and, besides a replica ack, that can
// advance its durability watermark: in available mode a replica whose
// link went down stops gating, so acks the gate withheld may be due now.
// It returns those sessions' new watermarks, which the caller must pass
// to offerAcks once it has released n.mu. Caller holds n.mu.
func (n *Node) linkChangedLocked() []ackOffer {
	var offers []ackOffer
	for _, hs := range n.hosted {
		n.refreshDegradedLocked(hs)
		if d, ok := n.raiseDurableLocked(hs); ok {
			offers = append(offers, ackOffer{hs.key, d})
		}
	}
	return offers
}

// ackOffer is a durability watermark to re-offer as a client ack.
type ackOffer struct {
	key string
	seq int64
}

// offerAcks re-offers the acks ackGate withheld up to each offer's
// watermark. Called outside n.mu: Session.Ack may block on a full
// transport queue.
func (n *Node) offerAcks(offers []ackOffer) {
	for _, o := range offers {
		if sess := n.srv.Session(o.key); sess != nil {
			sess.Ack(o.seq)
		}
	}
}

// ackGate bounds the seq the server may ack to its client: the minimum
// seq acknowledged by every gating replica of the session. In available
// mode a disconnected replica is skipped — with every replica down the
// gate opens entirely, trading the outage window's durability for
// availability. In durable mode a disconnected replica keeps gating at
// its last acknowledged seq, so acks stall for the outage and no acked
// frame can be lost to a subsequent owner death. The withheld tail is
// released by Ack pushes when the watermark advances: from noteAcks on a
// replica ack, and from offerAcks after a link goes down.
func (n *Node) ackGate(session string, seq int64) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	hs := n.hosted[session]
	if hs == nil {
		return seq
	}
	d, gated := n.durableLocked(hs)
	if !gated || d > seq {
		d = seq
	}
	n.advanceDurableLocked(hs, d)
	return d
}

// durableLocked returns the replication durability watermark of hs: the
// lowest ack among its gating replica links. In available mode only
// connected replicas gate (gated=false with all of them down); in
// durable mode every replica gates, a disconnected one at its last
// acknowledged seq.
func (n *Node) durableLocked(hs *hostedSession) (d int64, gated bool) {
	if len(hs.replicas) == 0 {
		return 0, false
	}
	d = int64(1<<62 - 1)
	for _, peer := range hs.replicas {
		l := n.links[peer]
		connected := l != nil && l.connected
		if !connected && hs.mode != Durable {
			continue
		}
		gated = true
		var r int64
		if l != nil {
			r = l.racked[hs.key]
		}
		if r < d {
			d = r
		}
	}
	if !gated {
		return 0, false
	}
	return d, true
}

// raiseDurableLocked recomputes the durability watermark of hs, capped
// at its log, and reports the watermark when that is an advance. Caller
// holds n.mu.
func (n *Node) raiseDurableLocked(hs *hostedSession) (int64, bool) {
	d, gated := n.durableLocked(hs)
	if !gated || d > int64(len(hs.log)) {
		d = int64(len(hs.log))
	}
	return d, n.advanceDurableLocked(hs, d)
}

// noteAcks recomputes the durability watermark of key after a replica
// ack and, when it advances, re-offers the acks that ackGate withheld.
// Called from a link's ack reader, outside n.mu.
func (n *Node) noteAcks(key string) {
	n.mu.Lock()
	hs := n.hosted[key]
	if hs == nil {
		n.mu.Unlock()
		return
	}
	d, advanced := n.raiseDurableLocked(hs)
	if hs.bye && hs.durable == int64(len(hs.log)) {
		// Every replica holds the full log through the bye; the hosted
		// state has done its job.
		n.dropHostedLocked(hs)
	}
	n.mu.Unlock()
	if advanced {
		n.offerAcks([]ackOffer{{key, d}})
	}
}

// superseded handles evidence that a newer incarnation of key lives at
// from: a stale-epoch reject from a replica, or an inbound repl-open
// carrying a higher epoch than our hosted copy. The hosted state is
// dropped, any live local session is kicked and tombstoned so its client
// follows the redirect, and an in-flight handoff fails — a zombie
// ex-owner must never keep acking frames the cluster has moved past.
//
// The one exception is the incarnation an in-flight handoff created: the
// adopting replica replicates the session back to this node over its own
// link, so its repl-open (or a stale-epoch reject) can arrive before the
// handoff-ack. Evidence from the handoff's target at the handoff's epoch
// is that adoption, and completes the handoff.
func (n *Node) superseded(key string, epoch int64, from, reason string) {
	n.mu.Lock()
	n.observeEpochLocked(key, epoch)
	hs := n.hosted[key]
	if hs == nil || hs.epoch >= epoch {
		n.mu.Unlock()
		return
	}
	if ho := hs.handoff; ho != nil && ho.target == from && ho.epoch == epoch {
		n.mu.Unlock()
		n.completeHandoff(key, from, epoch)
		return
	}
	n.dropHostedLocked(hs)
	n.met.supersedes.Inc()
	ho := hs.handoff
	hs.handoff = nil
	n.cond.Broadcast()
	n.mu.Unlock()
	if ho != nil {
		ho.finish(fmt.Errorf("cluster: session %s superseded during handoff", key))
	}
	n.log("cluster: session %s (epoch %d) superseded by epoch %d at %s: %s", key, hs.epoch, epoch, from, reason)
	n.srv.Supersede(key, from, reason)
}

// recoverSession is the server's recovery hook: a resume named a session
// with no local state. If this node is not in the key's placement (or is
// draining) it redirects; if it holds a replica log it promotes itself —
// minting a fencing epoch past the log's, rebuilding the session by
// replay, and taking over replication to the remaining successors.
// Promotion happens even while the old owner's feeder link is still
// live: the client resuming here is the evidence that the owner is
// unreachable where it matters (a node can be dead to clients yet keep
// its outbound replication up), and the minted epoch fences the old
// incarnation the moment its next replicated message is rejected.
// Otherwise the session is simply unknown here (the client's candidate
// sweep moves on).
func (n *Node) recoverSession(key string) (*server.Session, error) {
	succ := n.ring.Successors(key, n.r)
	inPlacement := false
	for _, s := range succ {
		if s == n.self {
			inPlacement = true
			break
		}
	}
	if !inPlacement {
		n.met.redirects.Inc()
		return nil, &server.RejectError{
			Code:  server.CodeNotOwner,
			Owner: succ[0],
			Msg:   fmt.Sprintf("cluster: session %q is not placed on this node; dial %s", key, succ[0]),
		}
	}

	n.mu.Lock()
	if n.draining {
		if alt := firstOther(succ, n.self); alt != "" {
			n.mu.Unlock()
			n.met.redirects.Inc()
			return nil, &server.RejectError{
				Code:  server.CodeNotOwner,
				Owner: alt,
				Msg:   fmt.Sprintf("cluster: node is draining; dial %s", alt),
			}
		}
	}
	if wait, racing := n.promoting[key]; racing {
		// Another connection is already promoting this key: wait for it,
		// then hand back whatever it built. A bye-terminated recovery
		// leaves no live session — returning (nil, nil) sends the caller
		// to the morgue, where the terminal replay now lives.
		n.mu.Unlock()
		<-wait
		return n.srv.Session(key), nil
	}
	rl := n.replicated[key]
	if rl == nil {
		n.mu.Unlock()
		return nil, nil // genuinely unknown here
	}
	done := make(chan struct{})
	n.promoting[key] = done
	epoch := n.mintEpochLocked(key, rl.epoch)
	hello := rl.hello
	log := append([][]byte(nil), rl.log...)
	n.mu.Unlock()

	defer func() {
		n.mu.Lock()
		delete(n.promoting, key)
		n.mu.Unlock()
		close(done)
	}()

	n.log("cluster: promoting %s from replica log (%d frames, epoch %d → %d)", key, len(log), rl.epoch, epoch)
	sess, err := n.openFromLog(hello, log, epoch)
	if err != nil {
		return nil, fmt.Errorf("cluster: promote %s: %v", key, err)
	}
	n.met.failovers.Inc()
	return sess, nil
}

// openFromLog rebuilds a live session from a replication log — the entries
// decode back into the frames they were encoded from and replay through
// the ordinary ingest path — and makes this node its host under epoch:
// the whole backlog replicates to the remaining successors (replicas
// fence their stale copies and re-ingest from seq 1). The session is nil
// when the log ends in a bye; the morgue then holds its terminal state.
func (n *Node) openFromLog(hello server.ClientFrame, log [][]byte, epoch int64) (*server.Session, error) {
	frames, err := decodeLog(log)
	if err != nil {
		return nil, err
	}
	sess, err := n.srv.OpenRecovered(hello, frames)
	if err != nil {
		return nil, err
	}
	mode, _ := ParseDurability(hello.Durability)
	bye := len(frames) > 0 && frames[len(frames)-1].Type == server.FrameBye
	n.registerHosted(&hostedSession{key: hello.Session, hello: hello, log: log, bye: bye, epoch: epoch, mode: mode})
	return sess, nil
}
