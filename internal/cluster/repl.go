package cluster

import (
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"repro/internal/backoff"
	"repro/internal/pir"
	"repro/internal/server"
)

// peerLink is this node's outgoing replication link to one peer. A link
// is created lazily when a hosted session first needs the peer and then
// lives until shutdown: a dedicated goroutine dials (with seeded
// exponential backoff), performs the repl-hello handshake, and streams
// repl-open messages and data frames for every hosted session placed on
// the peer, while a reader goroutine collects repl-acks into the racked
// watermark that gates client acks. On reconnect the send cursors reset
// to the racked watermark — everything unacknowledged is re-sent, and
// the replica dedupes by seq, so a dropped link never leaves a hole in a
// log.
//
// All fields are guarded by the owning Node's mu.
type peerLink struct {
	node *Node
	peer string // ring identity
	addr string // dial address (ReplTargets override, else the identity)

	conn      net.Conn
	connected bool             // handshake done; racked gates acks while true
	racked    map[string]int64 // per-session contiguous ack high-water
	sent      map[string]int   // per-session frames written this connection
	opened    map[string]bool  // repl-open written this connection
	// control queues session-scoped control messages (drain handoffs).
	// They are flushed after a session's open/frames on the current
	// connection — a handoff must never overtake the log it transfers —
	// and entries for sessions not yet opened on this connection are
	// retained for a later batch.
	control []replMsg
	wbuf    []byte // the send loop's reused batch buffer
}

// linkSeed derives the deterministic jitter seed of one directed
// replication link: distinct per (self, peer) pair so a cluster's links
// never thunder in lockstep, folded with the ring seed so two clusters
// sharing a host decorrelate too.
func linkSeed(self, peer string, ringSeed uint64) int64 {
	h := fnv.New64a()
	h.Write([]byte(self))
	h.Write([]byte{0})
	h.Write([]byte(peer))
	return int64(h.Sum64() ^ ringSeed)
}

// ensureLinkLocked creates (once) and starts the link to peer. Caller
// holds n.mu.
func (n *Node) ensureLinkLocked(peer string) {
	if n.links[peer] != nil || n.closed {
		return
	}
	addr := peer
	if a, ok := n.dial[peer]; ok {
		addr = a
	}
	l := &peerLink{
		node:   n,
		peer:   peer,
		addr:   addr,
		racked: make(map[string]int64),
		sent:   make(map[string]int),
		opened: make(map[string]bool),
	}
	n.links[peer] = l
	n.wg.Add(1)
	go l.run()
}

// shut closes the link's current connection so its goroutines unblock;
// the run loop observes node.closed and exits.
func (l *peerLink) shut() {
	l.node.mu.Lock()
	conn := l.conn
	l.node.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// done reports whether the node is shutting down.
func (l *peerLink) done() bool {
	l.node.mu.Lock()
	defer l.node.mu.Unlock()
	return l.node.closed
}

// sleep waits d or until shutdown; it reports whether to exit.
func (l *peerLink) sleep(d time.Duration) bool {
	select {
	case <-l.node.stopc:
		return true
	case <-time.After(d):
		return false
	}
}

func (l *peerLink) run() {
	defer l.node.wg.Done()
	pol := backoff.New(10*time.Millisecond, time.Second, linkSeed(l.node.self, l.peer, l.node.seed))
	attempt := 0
	dials := 0
	for {
		if l.done() {
			return
		}
		if dials > 0 {
			l.node.met.linkReconnects.Inc()
		}
		dials++
		conn, err := net.DialTimeout("tcp", l.addr, 2*time.Second)
		if err != nil {
			l.node.met.connErrors.Inc()
			if l.sleep(pol.Delay(attempt)) {
				return
			}
			attempt++
			continue
		}
		l.node.mu.Lock()
		if l.node.closed {
			l.node.mu.Unlock()
			conn.Close()
			return
		}
		l.conn = conn
		l.node.mu.Unlock()

		sc := server.NewFrameScanner(conn)
		if err := l.handshake(conn, sc); err != nil {
			l.node.met.connErrors.Inc()
			conn.Close()
			if l.sleep(pol.Delay(attempt)) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		l.node.met.resyncs.Inc()
		l.node.log("cluster: replication link to %s up", l.peer)

		ackDone := make(chan struct{})
		go func() {
			defer close(ackDone)
			l.readAcks(conn, sc)
		}()
		l.sendLoop(conn)
		conn.Close()
		<-ackDone
		l.node.met.connErrors.Inc()
	}
}

// handshake opens the replication dialog: repl-hello, then wait for the
// repl-welcome before writing anything else — the receiving server peeks
// only the first line before handing the connection over, so nothing may
// follow the hello until the replica has taken it.
func (l *peerLink) handshake(conn net.Conn, sc *server.FrameScanner) error {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(appendReplMsg(replMsg{Type: msgReplHello, From: l.node.self})); err != nil {
		return err
	}
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return net.ErrClosed
	}
	m, err := decodeReplMsg(sc.Bytes())
	if err != nil {
		return err
	}
	if m.Type != msgReplWelcome {
		return net.ErrClosed
	}
	return nil
}

// sendLoop streams pending repl messages until the connection dies or
// the node shuts down. Batches are snapshotted under the node lock and
// written outside it; the sent cursors advance optimistically and reset
// to the racked watermark on the next connection.
func (l *peerLink) sendLoop(conn net.Conn) {
	n := l.node
	n.mu.Lock()
	l.connected = true
	for k := range l.opened {
		delete(l.opened, k)
	}
	// Reset every send cursor, not just the racked ones: a session whose
	// previous connection died before any ack arrived has sent > 0 with
	// no racked entry, and skipping it would strand its unacked frames —
	// holing the replica log and wedging the durable gate forever.
	for k := range l.sent {
		l.sent[k] = int(l.racked[k])
	}
	// A link coming up adds a gating replica, which can only lower the
	// watermark: there are no acks to offer.
	n.linkChangedLocked()
	n.cond.Broadcast() // connectivity change: the ack gate now binds on this link
	for {
		if n.closed || l.conn != conn {
			break
		}
		batch := l.collectLocked()
		if len(batch) == 0 {
			n.cond.Wait()
			continue
		}
		n.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		_, err := conn.Write(batch)
		n.mu.Lock()
		if err != nil {
			break
		}
	}
	l.connected = false
	if l.conn == conn {
		l.conn = nil
	}
	l.abortControlLocked()
	offers := n.linkChangedLocked()
	n.cond.Broadcast()
	n.mu.Unlock()
	n.offerAcks(offers)
}

// abortControlLocked drops this link's queued control messages and fails
// the handoffs they carried: a handoff offer must ride the connection
// whose acks proved the replica holds the full log, so a dropped link
// invalidates it. Drain surfaces the error and the session stays hosted
// (the ordinary failover path covers it if the node dies anyway). Caller
// holds n.mu.
func (l *peerLink) abortControlLocked() {
	n := l.node
	l.control = nil
	for _, hs := range n.hosted {
		if hs.handoff != nil && hs.handoff.target == l.peer {
			ho := hs.handoff
			hs.handoff = nil
			ho.finish(fmt.Errorf("cluster: replication link to %s lost during handoff", l.peer))
		}
	}
}

// collectLocked gathers the next batch of repl messages for this peer:
// an open for every hosted session not yet announced on this connection,
// then its unsent log entries in seq order as data frames — the entries
// were encoded when they were accepted, so this only copies bytes —
// bounded per batch so one busy session cannot monopolize the wire
// buffer; finally any queued control messages whose session is open on
// this connection. The batch lives in l.wbuf until the next call. Caller
// holds n.mu.
func (l *peerLink) collectLocked() []byte {
	const maxBatch, maxBatchBytes = 256, 1 << 20
	batch := l.wbuf[:0]
	msgs := 0
	full := func() bool { return msgs >= maxBatch || len(batch) >= maxBatchBytes }
	for key, hs := range l.node.hosted {
		if !hs.replicatesTo(l.peer) {
			continue
		}
		if !l.opened[key] {
			l.opened[key] = true
			hello := hs.hello
			batch = append(batch, appendReplMsg(replMsg{Type: msgReplOpen, Session: key, Epoch: hs.epoch, Hello: &hello})...)
			msgs++
		}
		if sent := l.sent[key]; sent < len(hs.log) {
			from := sent
			for ; sent < len(hs.log) && !full(); sent++ {
				batch = appendDataFrame(batch, hs.header, int64(sent+1), hs.log[sent])
				msgs++
			}
			l.sent[key] = sent
			l.node.met.framesSent.Add(int64(sent - from))
		}
		if full() {
			break
		}
	}
	if !full() && len(l.control) > 0 {
		kept := l.control[:0]
		for _, m := range l.control {
			if !l.opened[m.Session] || full() {
				kept = append(kept, m)
				continue
			}
			batch = append(batch, appendReplMsg(m)...)
			msgs++
		}
		l.control = kept
		if len(l.control) == 0 {
			l.control = nil
		}
	}
	l.wbuf = batch
	return batch
}

// replicatesTo reports whether peer holds a copy of this session.
func (hs *hostedSession) replicatesTo(peer string) bool {
	for _, p := range hs.replicas {
		if p == peer {
			return true
		}
	}
	return false
}

// readAcks drains the replica's replies: repl-acks advance the racked
// watermark (waking the drain handoff and re-offering client acks the
// gate withheld), repl-rejects carry fencing verdicts — a stale-epoch
// reject means this node has been superseded — and repl-handoff-acks
// complete a drain transfer. It exits when the connection dies, waking
// the send loop.
func (l *peerLink) readAcks(conn net.Conn, sc *server.FrameScanner) {
	n := l.node
loop:
	for sc.Scan() {
		m, err := decodeReplMsg(sc.Bytes())
		if err != nil || m.Session == "" {
			break
		}
		switch m.Type {
		case msgReplAck:
			n.met.acksRecv.Inc()
			n.mu.Lock()
			if hs := n.hosted[m.Session]; hs != nil && m.Epoch != 0 && m.Epoch != hs.epoch {
				// An ack for a different incarnation of the key (the replica
				// has not caught up with a reuse or handoff yet) must not
				// advance this incarnation's watermark.
				n.mu.Unlock()
				continue
			}
			if m.Seq > l.racked[m.Session] {
				l.racked[m.Session] = m.Seq
				n.cond.Broadcast() // the drain handoff waits on racked
			}
			n.mu.Unlock()
			n.noteAcks(m.Session)
		case msgReplReject:
			if m.Code == rejectStaleEpoch {
				n.superseded(m.Session, m.Epoch, l.peer, "stale-epoch reject from replica")
				continue
			}
			n.failHandoff(m.Session, l.peer, fmt.Errorf("cluster: %s rejected handoff of %s: %s", l.peer, m.Session, m.Code))
		case msgReplHandoffAck:
			n.completeHandoff(m.Session, l.peer, m.Epoch)
		default:
			break loop
		}
	}
	conn.Close()
	var offers []ackOffer
	n.mu.Lock()
	if l.conn == conn {
		l.conn = nil
		l.connected = false
		l.abortControlLocked()
		offers = n.linkChangedLocked()
	}
	n.cond.Broadcast()
	n.mu.Unlock()
	n.offerAcks(offers)
}

// serveRepl is the replica side of a replication link: it runs on the
// takeover connection's goroutine, appends in-order entries to the
// per-session replica logs, and acks each touched log's contiguous
// high-water seq and epoch once per burst — when the scanner has nothing
// further buffered. Out-of-order or duplicate frames are acknowledged
// without being applied — the resync protocol relies on redelivery being
// idempotent.
//
// Epoch fencing happens here. An open carrying a newer epoch than the
// held log truncates it (the old incarnation's frames are garbage now)
// and adopts the connection as the log's feeder; an equal epoch re-open
// — the owner reconnecting — adopts the new connection last-writer-wins.
// Any session-scoped message carrying an older epoch is refused with a
// typed stale-epoch reject, which tells a zombie ex-owner it has been
// superseded. Frames from a connection that is not the current feeder
// are acknowledged at the current high-water without being applied, so
// a benign duplicate sender can never fork a log.
func (n *Node) serveRepl(from string, conn net.Conn) {
	n.log("cluster: replication link from %s", from)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.inbound[conn] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, conn)
		for _, rl := range n.replicated {
			if rl.feeder == conn {
				rl.feeder = nil
				rl.from = ""
			}
		}
		n.mu.Unlock()
	}()
	// Replication links idle legitimately; the ingest read deadline the
	// server armed before the takeover must not kill them.
	conn.SetReadDeadline(time.Time{})
	if _, err := conn.Write(appendReplMsg(replMsg{Type: msgReplWelcome})); err != nil {
		return
	}
	// maxUnanswered bounds how many messages a sender that never pauses
	// can stream before it hears back; it matches the sender's batch size.
	const maxUnanswered = 256
	var (
		sc         = server.NewFrameScanner(conn)
		out        []byte                       // replies of the current burst
		touched    = map[*replicaLog]struct{}{} // logs owed an ack at the end of the burst
		acks       []replMsg
		unanswered int
		vt         pir.VarTable // admission-decode scratch
		scratch    pir.Batch
	)
	for sc.Scan() {
		unanswered++
		if sc.Binary() {
			if sc.BinaryType() != server.BinRepl {
				return
			}
			rl, reply, ok := n.appendReplicated(conn, sc.Bytes(), &vt, &scratch)
			switch {
			case !ok:
				return
			case rl != nil:
				touched[rl] = struct{}{}
			default:
				out = append(out, appendReplMsg(reply)...)
			}
		} else {
			m, err := decodeReplMsg(sc.Bytes())
			if err != nil || m.Session == "" {
				return
			}
			var reply replMsg
			switch m.Type {
			case msgReplOpen:
				if m.Hello == nil {
					return
				}
				reply = n.openReplicated(from, conn, m)
			case msgReplHandoff:
				reply = n.adoptHandoff(from, conn, m)
			default:
				return
			}
			out = append(out, appendReplMsg(reply)...)
		}
		if sc.Buffered() > 0 && unanswered < maxUnanswered {
			continue // mid-burst: the acks owed so far are cumulative and can wait
		}
		n.mu.Lock()
		acks = acks[:0]
		for rl := range touched {
			if n.replicated[rl.key] == rl { // else promoted away meanwhile; the sender's next message draws the reject
				acks = append(acks, replMsg{Type: msgReplAck, Session: rl.key, Seq: int64(len(rl.log)), Epoch: rl.epoch})
			}
		}
		n.mu.Unlock()
		clear(touched)
		for _, a := range acks {
			out = append(out, appendReplMsg(a)...)
		}
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(out); err != nil {
			return
		}
		out, unanswered = out[:0], 0
	}
}

// openReplicated handles a repl-open on the replica side: create, adopt
// or fence the session's replica log and answer with its high-water seq,
// or refuse a stale incarnation.
func (n *Node) openReplicated(from string, conn net.Conn, m replMsg) replMsg {
	// A newer incarnation opening here is also the authoritative word that
	// any hosted copy of the key this node still runs (an ex-owner that
	// missed its own demotion) is stale.
	n.superseded(m.Session, m.Epoch, from, "newer incarnation replicated here")
	n.mu.Lock()
	rl := n.replicated[m.Session]
	held := n.epochs[m.Session]
	if rl != nil {
		held = rl.epoch
	}
	if m.Epoch < held {
		// Either the held log is newer, or there is no log but this node
		// has seen a newer incarnation of the key (it may host it right
		// now): a zombie ex-owner re-opening at its old epoch must not
		// plant a stale log here.
		n.met.staleEpochs.Inc()
		n.mu.Unlock()
		n.log("cluster: rejected stale open of %s from %s (epoch %d < %d)", m.Session, from, m.Epoch, held)
		return replMsg{Type: msgReplReject, Session: m.Session, Code: rejectStaleEpoch, Epoch: held}
	}
	if rl == nil {
		rl = &replicaLog{key: m.Session, hello: *m.Hello, epoch: m.Epoch}
		n.replicated[m.Session] = rl
		n.met.sessionsReplicated.Set(int64(len(n.replicated)))
	}
	truncated := -1
	if m.Epoch > rl.epoch {
		// Fence: the held log belongs to a dead incarnation.
		n.met.fences.Inc()
		truncated = len(rl.log)
		rl.log = nil
		rl.hello = *m.Hello
		rl.epoch = m.Epoch
	}
	rl.feeder = conn
	rl.from = from
	n.observeEpochLocked(m.Session, m.Epoch)
	reply := replMsg{Type: msgReplAck, Session: m.Session, Seq: int64(len(rl.log)), Epoch: rl.epoch}
	n.mu.Unlock()
	if truncated >= 0 {
		n.log("cluster: fencing %s (epoch %d → %d, %d frames truncated)", m.Session, held, m.Epoch, truncated)
	}
	return reply
}

// appendReplicated handles one data frame on the replica side. The entry
// is decoded before anything else — a replica must never hold, let alone
// ack, bytes a later promotion could not replay — and only then triaged
// against the log (epoch fence, feeder, next-in-order). It returns the
// log now owed an ack, or the reply to send instead; ok=false drops the
// link (malformed frame, or a frame that preceded its open).
func (n *Node) appendReplicated(conn net.Conn, payload []byte, vt *pir.VarTable, scratch *pir.Batch) (rl *replicaLog, reply replMsg, ok bool) {
	fr, err := parseDataFrame(payload)
	if err != nil {
		return nil, reply, false
	}
	if f, err := decodeEntry(fr.entry, vt, scratch); err != nil || f.Seq != fr.seq {
		return nil, reply, false
	}
	entry := append([]byte(nil), fr.entry...) // the scanner reuses its buffer
	n.mu.Lock()
	defer n.mu.Unlock()
	rl = n.replicated[string(fr.session)]
	held := n.epochs[string(fr.session)]
	if rl != nil {
		held = rl.epoch
	}
	if fr.epoch < held {
		// Stale incarnation. With no log this node promoted the key out of
		// its replica set (failover or handoff adoption deleted the log
		// while the old feeder was still streaming): tell the sender it
		// is fenced.
		n.met.staleEpochs.Inc()
		return nil, replMsg{Type: msgReplReject, Session: string(fr.session), Code: rejectStaleEpoch, Epoch: held}, true
	}
	if rl == nil {
		return nil, reply, false // a frame genuinely preceded its open: protocol error
	}
	// Not the current feeder: acknowledge without applying, so a
	// superseded connection drains harmlessly instead of forking the log.
	if rl.feeder == conn && fr.seq == int64(len(rl.log))+1 {
		rl.log = append(rl.log, entry)
		n.met.framesRecv.Inc()
	}
	return rl, reply, true
}

// adoptHandoff is the replica side of a drain transfer: validate that
// the offer matches the held log exactly — fed by this connection, a
// strictly newer epoch, and every transferred frame already applied —
// then promote the log into a live session under the new epoch and
// become its owner. Any mismatch is refused without touching the log;
// the draining node keeps the session and reports the failed handoff.
func (n *Node) adoptHandoff(from string, conn net.Conn, m replMsg) replMsg {
	n.mu.Lock()
	rl := n.replicated[m.Session]
	held := int64(0)
	if rl != nil {
		held = rl.epoch
	}
	if rl == nil || rl.feeder != conn || m.Epoch <= rl.epoch ||
		int64(len(rl.log)) != m.Seq || n.draining || n.closed {
		n.mu.Unlock()
		return replMsg{Type: msgReplReject, Session: m.Session, Code: rejectHandoffMismatch, Epoch: held}
	}
	if _, racing := n.promoting[m.Session]; racing {
		n.mu.Unlock()
		return replMsg{Type: msgReplReject, Session: m.Session, Code: rejectHandoffMismatch, Epoch: held}
	}
	done := make(chan struct{})
	n.promoting[m.Session] = done
	rl.epoch = m.Epoch
	rl.feeder = nil
	rl.from = ""
	n.observeEpochLocked(m.Session, m.Epoch)
	hello := rl.hello
	log := append([][]byte(nil), rl.log...)
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.promoting, m.Session)
		n.mu.Unlock()
		close(done)
	}()

	n.log("cluster: adopting %s from draining %s (%d frames, epoch %d)", m.Session, from, len(log), m.Epoch)
	if _, err := n.openFromLog(hello, log, m.Epoch); err != nil {
		n.log("cluster: handoff adoption of %s failed: %v", m.Session, err)
		return replMsg{Type: msgReplReject, Session: m.Session, Code: rejectHandoffFailed, Epoch: m.Epoch}
	}
	return replMsg{Type: msgReplHandoffAck, Session: m.Session, Epoch: m.Epoch}
}
