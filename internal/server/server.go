package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// OverflowPolicy says what ingest does when a session's bounded queue is
// full.
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: the ingesting goroutine (and,
	// through the TCP window, the remote client) waits until the
	// session's monitor loop catches up. The default.
	OverflowBlock OverflowPolicy = iota
	// OverflowDrop sheds a batch of events whole when the queue cannot
	// take it — a client batch frame, or the lines the TCP reader gathered
	// from one read — and counts its events (session Dropped,
	// hb_server_events_dropped_total), so event ingest never stalls.
	// Batches with an init row, snapshots and rejections wait for room;
	// resumable sessions always block. A lossy session keeps running
	// best-effort: dropping a send whose receive later arrives surfaces
	// as an error frame on that receive.
	OverflowDrop
)

// String implements fmt.Stringer.
func (p OverflowPolicy) String() string {
	switch p {
	case OverflowBlock:
		return "block"
	case OverflowDrop:
		return "drop"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParseOverflowPolicy parses "block" or "drop".
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block":
		return OverflowBlock, nil
	case "drop":
		return OverflowDrop, nil
	default:
		return 0, fmt.Errorf("server: unknown overflow policy %q (want block or drop)", s)
	}
}

// Config configures a Server. The zero value is usable: defaults are
// applied by New.
type Config struct {
	// QueueDepth is the per-session ingest queue capacity (default 256).
	QueueDepth int
	// Overflow is the policy applied when a session queue is full; see
	// OverflowDrop for what the drop policy sheds.
	Overflow OverflowPolicy
	// MaxSessions caps concurrently open sessions (default 1024).
	MaxSessions int
	// IdleTimeout closes sessions that ingested nothing for this long
	// (0 disables). TCP connections additionally enforce it as a read
	// deadline. It is also what reclaims a resumable session whose
	// client never comes back.
	IdleTimeout time.Duration
	// ReadTimeout bounds each TCP frame read, so a half-open peer that
	// stopped sending cannot park a reader goroutine forever (default
	// 5m; negative disables). Timed-out reads close the connection with
	// reason "read_timeout" in hb_server_conn_closes_total; resumable
	// sessions survive the close and wait for a resume.
	ReadTimeout time.Duration
	// RetentionWindow is the resume staleness bound (default 4096): a
	// resume whose last-acked seq is more than this many accepted frames
	// behind is rejected as stale, which caps what a returning client may
	// replay into the session. Nothing is stored per frame.
	RetentionWindow int
	// AckEvery is how many applied sequenced frames pass between ack
	// frames on resumable sessions (default 32). Clients bound their
	// in-flight buffer by it: BufferLimit must exceed AckEvery.
	AckEvery int
	// IngestDelay adds an artificial per-event processing delay in the
	// monitor loop — for demos and backpressure testing.
	IngestDelay time.Duration
	// Registry receives the hb_server_* metrics (nil → obs.Default()).
	Registry *obs.Registry
	// Cluster, when non-nil, turns this server into one node of a
	// detection cluster (internal/cluster installs it): session keys are
	// vetted against the placement ring, accepted sequenced frames are
	// replicated, client acks are gated on replication durability, and
	// resumes of unknown sessions may be recovered from a replicated
	// journal. All hook fields are optional.
	Cluster *ClusterHooks
	// Tracer, when non-nil, receives pipeline spans: one root span per
	// session and, under it, per-frame spans for each pipeline stage
	// (decode → frame → enqueue → apply → verdict). Span attributes carry
	// a "service" key so the server's own traces round-trip through the
	// spanhb adapter back onto the happened-before model — the dogfood
	// path. Nil disables span collection entirely (every call degrades to
	// a nil check).
	Tracer *obs.Tracer
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// ClusterHooks is the integration surface internal/cluster installs to
// turn a standalone server into one node of a detection cluster. Every
// field is optional; a nil hook keeps standalone behavior. The hooks
// deliberately live on this side of the package boundary so the cluster
// package needs no access to session internals.
type ClusterHooks struct {
	// Takeover inspects the first line of a new connection before frame
	// decoding; returning true transfers the connection to the hook (the
	// replication protocol rides the same listener as client ingest).
	// The hook runs on the connection's goroutine and must return only
	// when it is done with the conn; the server closes it afterwards.
	Takeover func(first []byte, conn net.Conn) bool
	// Placement vets a keyed hello: ok=false rejects it with a
	// not-owner redirect to owner. Resumes are vetted lazily — only
	// when the session is unknown locally (see Recover) — so a node
	// always serves the sessions it actually holds.
	Placement func(key string) (owner string, ok bool)
	// OnOpen observes every keyed resumable session opened by a hello
	// frame, before any frame of it is ingested.
	OnOpen func(sess *Session, cfg SessionConfig)
	// OnAccept observes every accepted sequenced frame (init, event,
	// bye) of a resumable session, in seq order, on the transport
	// goroutine — blocking applies backpressure to the client.
	OnAccept func(sess *Session, f ClientFrame)
	// AckGate bounds the seq the server may ack on the given session;
	// the cluster returns its replication durability watermark so
	// clients never release frames that exist on fewer nodes than the
	// replication factor. Returning seq unchanged means ungated.
	AckGate func(session string, seq int64) int64
	// Recover is consulted when a resume names a key with no open
	// session and no retired state: a replica node rebuilds it from the
	// replicated journal and returns the live session (or nil after
	// replaying a journal that ended in a bye — the retired key then
	// serves the terminal replay). Returning (nil, *RejectError)
	// redirects or rejects; (nil, nil) with no local knowledge means
	// unknown-session.
	Recover func(session string) (*Session, error)
	// Resume, when non-nil, vetoes resume handshakes before any session
	// lookup: a non-nil error (ideally a *RejectError) rejects the
	// resume. The cluster uses it to hold clients off a session whose
	// frame log is mid-handoff to another node.
	Resume func(session string) error
}

// Server multiplexes detection sessions. Transports (Serve for TCP,
// RegisterHTTP for HTTP) feed sessions opened with Open; Shutdown drains
// everything.
type Server struct {
	cfg Config
	met *metrics

	// mu guards the session table: the open sessions and the retired
	// keys, which the retirement order lists oldest first. Nothing is
	// called out to while it is held (DESIGN decision 24).
	mu       sync.Mutex
	sessions map[string]*Session
	retired  map[string]*list.Element // of order; Value is a *retiredKey
	order    list.List
	nextID   atomic.Int64
	draining atomic.Bool

	lnMu sync.Mutex
	lns  []net.Listener
	idle map[net.Conn]struct{} // TCP connections waiting between sessions; Shutdown closes them

	wg       sync.WaitGroup // session loops and connection handlers
	stop     chan struct{}
	stopOnce sync.Once
}

// New returns a server ready to Open sessions and accept transports.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 5 * time.Minute
	}
	if cfg.RetentionWindow <= 0 {
		cfg.RetentionWindow = 4096
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 32
	}
	s := &Server{
		cfg:  cfg,
		met:  newMetrics(cfg.Registry),
		stop: make(chan struct{}),
	}
	s.sessions = make(map[string]*Session)
	s.retired = make(map[string]*list.Element)
	if cfg.IdleTimeout > 0 {
		go s.janitor()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Open creates a detection session and starts its monitor loop. It fails
// while draining, past MaxSessions, and on invalid configs (bad process
// count, unparsable watch predicates).
func (s *Server) Open(cfg SessionConfig) (*Session, error) {
	if cfg.Processes < 1 || cfg.Processes > MaxProcesses {
		return nil, fmt.Errorf("server: processes must be in [1,%d], got %d", MaxProcesses, cfg.Processes)
	}
	if len(cfg.Watches) > MaxWatches {
		return nil, fmt.Errorf("server: at most %d watches, got %d", MaxWatches, len(cfg.Watches))
	}
	if cfg.ID != "" {
		if err := ValidateKey(cfg.ID); err != nil {
			return nil, err
		}
	}
	ws, err := buildWatches(cfg.Processes, cfg.Watches)
	if err != nil {
		return nil, err
	}
	id := cfg.ID
	if id == "" {
		id = fmt.Sprintf("s-%04d", s.nextID.Add(1))
	}
	// Built before the lock is taken, so concurrent opens contend only on
	// the insert; a rejected session is dropped unstarted and unrecorded.
	sess := newSession(s, id, cfg.Processes, ws, cfg.Bounded)
	sess.resumable = cfg.Resumable
	s.mu.Lock()
	switch {
	case s.draining.Load():
		// Checked under the lock Shutdown's snapshot takes after setting
		// draining: it either sees this session or this open sees
		// draining, so no session leaks past shutdown.
		err = fmt.Errorf("server: shutting down")
	case len(s.sessions) >= s.cfg.MaxSessions:
		err = fmt.Errorf("server: session limit %d reached", s.cfg.MaxSessions)
	case s.sessions[id] != nil:
		// Typed so clients can tell "my earlier hello opened this but the
		// welcome was lost" (recover by resuming the key) from a plain
		// rejection.
		err = &RejectError{Code: CodeKeyInUse, Msg: fmt.Sprintf("server: session key %q already in use", id)}
	default:
		s.sessions[id] = sess
		// A fresh session under this key supersedes whatever a previous
		// incarnation left retired.
		s.forgetLocked(id)
		s.met.sessionsActive.Set(int64(len(s.sessions)))
		s.wg.Add(1) // before Shutdown's snapshot, so before its wait
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.met.sessionsTotal.Inc()
	s.met.opened.Add(1)
	s.logf("session %s opened: %d processes, %d watches (resumable=%v, bounded=%v)", id, cfg.Processes, len(ws), cfg.Resumable, cfg.Bounded)
	go sess.run()
	return sess, nil
}

// OpenRecovered rebuilds a resumable session from a replicated frame log:
// it opens the session under its original id and replays every sequenced
// frame through the normal ingest path, so the rebuilt monitor, seq
// marks, verdict record, and Idx numbering are bit-identical to what the
// failed home node held — detection is deterministic, so same frames in,
// same verdicts out. The hello frame supplies the session config; frames must
// be the accepted sequenced frames from seq 1 in order. If the log ends
// in a bye the session runs to completion and (nil, nil) is returned: the
// key is then retired with its terminal replay. Otherwise the returned
// session is live, detached, fully applied, and ready for tryResume.
func (s *Server) OpenRecovered(hello ClientFrame, frames []ClientFrame) (*Session, error) {
	if err := ValidateHello(hello); err != nil {
		return nil, err
	}
	if hello.Session == "" || !hello.Resumable {
		return nil, fmt.Errorf("server: recovery needs a keyed resumable hello")
	}
	sess, err := s.Open(SessionConfig{
		ID:         hello.Session,
		Processes:  hello.Processes,
		Watches:    hello.Watches,
		Resumable:  true,
		Bounded:    hello.Bounded,
		Durability: hello.Durability,
	})
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if f.Type == FrameBye {
			sess.Close("bye")
			<-sess.Done()
			return nil, nil
		}
		if f.Seq > 0 {
			// The transport normally advances the accept mark via
			// acceptSeq; replay owns the session exclusively, so it stores
			// the high-water directly before handing the frame to the loop.
			sess.enqSeq.Store(f.Seq)
		}
		if err := sess.Ingest(f); err != nil {
			sess.Close("recovery failed")
			return nil, fmt.Errorf("server: recovery replay of %s: %v", hello.Session, err)
		}
	}
	// Settle the loop so the caller hands out a fully-applied session:
	// tryResume's replay snapshot then contains every verdict the log
	// determines, not a prefix of them.
	if err := sess.Flush(); err != nil {
		return nil, fmt.Errorf("server: recovery flush of %s: %v", hello.Session, err)
	}
	return sess, nil
}

// Session returns the open session with the given id, or nil.
func (s *Server) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// retiredKey is what a key leaves in the table once its session is
// gone, for a resume that comes later. A finished resumable session
// leaves its terminal replay — welcome, the full latched record and the
// goodbye — so a client whose connection died between bye and goodbye
// still collects every frame it missed: the TIME_WAIT of the resume
// protocol. A session superseded by a newer incarnation elsewhere
// (failover, drain handoff, key reuse) leaves owner instead, so its old
// client gets a typed stale-epoch redirect to the key's new home rather
// than unknown-session.
type retiredKey struct {
	id      string
	at      time.Time
	owner   string // non-empty: superseded, redirect to owner
	welcome ServerFrame
	replay  []ServerFrame // shared read-only by every terminal resume
}

// retireLocked makes rk its key's retired state, newest in the
// retirement order, and stamps it now. Keys leave from the front of the
// order: the expired ones, and the oldest whenever more than MaxSessions
// are held — so both bounds are exact and no retire scans the table.
// Holds s.mu.
func (s *Server) retireLocked(rk *retiredKey) {
	s.forgetLocked(rk.id)
	rk.at = time.Now() // under the lock, so the order is by time
	s.retired[rk.id] = s.order.PushBack(rk)
	s.pruneLocked(rk.at)
}

// pruneLocked drops the retired keys that expired by now, and the
// oldest past MaxSessions. Holds s.mu.
func (s *Server) pruneLocked(now time.Time) {
	ttl := s.retiredTTL()
	for e := s.order.Front(); e != nil; e = s.order.Front() {
		rk := e.Value.(*retiredKey)
		if now.Sub(rk.at) <= ttl && s.order.Len() <= s.cfg.MaxSessions {
			return
		}
		s.forgetLocked(rk.id)
	}
}

// forgetLocked drops id's retired state, if any. Holds s.mu.
func (s *Server) forgetLocked(id string) {
	if e := s.retired[id]; e != nil {
		s.order.Remove(e)
		delete(s.retired, id)
	}
}

// lookup returns the session open under id or, failing that, the key's
// unexpired retired state.
func (s *Server) lookup(id string) (*Session, *retiredKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[id]; sess != nil {
		return sess, nil
	}
	s.pruneLocked(time.Now())
	if e := s.retired[id]; e != nil {
		return nil, e.Value.(*retiredKey)
	}
	return nil, nil
}

// Supersede replaces whatever state id holds with a redirect to owner.
// A live session is kicked and closed without leaving a terminal
// replay: its record describes a fenced incarnation and must not shadow
// the authoritative one.
func (s *Server) Supersede(id, owner, reason string) {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess != nil {
		sess.superseded = true
	}
	s.retireLocked(&retiredKey{id: id, owner: owner})
	s.mu.Unlock()
	if sess != nil {
		sess.Kick()
		sess.Close(reason)
	}
	s.logf("session %s superseded by %s: %s", id, owner, reason)
}

// retiredTTL is how long a retired key lingers.
func (s *Server) retiredTTL() time.Duration {
	if s.cfg.IdleTimeout > 0 {
		return s.cfg.IdleTimeout
	}
	return 30 * time.Second
}

// resume reattaches a transport to a live resumable session. On success
// the attachment is installed atomically with the replay snapshot: the
// caller must write welcome (Seq = high-water accepted seq) and then the
// replayed frames before consuming att.ch, so the client sees exactly
// the record → push order an uninterrupted connection would have.
//
// A nil *Session with a nil error is a terminal replay: the session
// already finished but its key is retired with its record — the caller
// writes welcome and the replay (which ends with the goodbye) and
// closes. Failures carry a Code* constant; only CodeBusy is worth
// retrying.
func (s *Server) resume(f ClientFrame, att *attachment) (*Session, ServerFrame, []ServerFrame, string, error) {
	if err := ValidateResume(f); err != nil {
		s.met.resumesRej.Inc()
		return nil, ServerFrame{}, nil, CodeBadSeq, err
	}
	// The cluster's veto hook runs before any lookup: a session whose
	// frame log is mid-handoff must not reattach here even though it is
	// still in the table.
	if h := s.cfg.Cluster; h != nil && h.Resume != nil {
		if err := h.Resume(f.Session); err != nil {
			s.met.resumesRej.Inc()
			var rej *RejectError
			if errors.As(err, &rej) {
				return nil, ServerFrame{}, nil, rej.Code, err
			}
			return nil, ServerFrame{}, nil, CodeBusy, err
		}
	}
	sess, rk := s.lookup(f.Session)
	// Cluster mode: a replica may hold this session's replicated journal
	// and can rebuild it; failing that, it redirects the client toward
	// the placement's owner rather than declaring the session gone — only
	// a node that could legitimately host the key may answer
	// unknown-session. A journal that ended in a bye rebuilds a session
	// that has already finished and retired its key.
	if h := s.cfg.Cluster; sess == nil && rk == nil && h != nil && h.Recover != nil {
		rec, err := h.Recover(f.Session)
		if err != nil {
			s.met.resumesRej.Inc()
			var rej *RejectError
			if errors.As(err, &rej) {
				return nil, ServerFrame{}, nil, rej.Code, err
			}
			return nil, ServerFrame{}, nil, CodeUnknownSession, err
		}
		if sess = rec; sess == nil {
			_, rk = s.lookup(f.Session)
		}
	}
	switch {
	case sess != nil:
		seq, replay, code, err := sess.tryResume(f.Seq, att)
		if err != nil {
			s.met.resumesRej.Inc()
			return nil, ServerFrame{}, nil, code, err
		}
		s.met.resumesOK.Inc()
		s.logf("session %s resumed at seq %d (%d frames to replay)", sess.id, seq, len(replay))
		welcome := sess.Welcome()
		welcome.Seq = seq
		welcome.Resumed = true
		return sess, welcome, replay, "", nil
	case rk == nil:
		s.met.resumesRej.Inc()
		return nil, ServerFrame{}, nil, CodeUnknownSession,
			fmt.Errorf("server: no live session %q (never opened, expired, or closed)", f.Session)
	case rk.owner != "":
		// This node's copy of the key was fenced by a newer incarnation
		// elsewhere: redirect rather than recover — the local journal, if
		// any survives, is the stale one.
		s.met.resumesRej.Inc()
		return nil, ServerFrame{}, nil, CodeStaleEpoch, &RejectError{
			Code: CodeStaleEpoch, Owner: rk.owner,
			Msg: fmt.Sprintf("server: session %q was superseded by a newer incarnation at %s", f.Session, rk.owner),
		}
	default:
		s.met.resumesOK.Inc()
		s.logf("session %s resumed into terminal replay (%d frames)", f.Session, len(rk.replay))
		return nil, rk.welcome, rk.replay, "", nil
	}
}

// SessionCount returns the number of currently open sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Stats returns this server's cumulative counts: sessions opened, events
// applied, events dropped — the shutdown summary. Unlike the registry's
// counters, they never include another server's.
func (s *Server) Stats() (sessions, events, dropped int64) {
	return s.met.opened.Load(), s.met.applied.Load(), s.met.shed.Load()
}

// remove releases a finished session, retiring its key with rk when rk
// is non-nil and the session was not superseded: its record describes a
// fenced incarnation and must not shadow the redirect to the new owner.
// Called by the session's loop.
func (s *Server) remove(sess *Session, rk *retiredKey) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	if rk != nil && !sess.superseded {
		s.retireLocked(rk)
	}
	s.met.sessionsActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	s.logf("session %s closed", sess.id)
}

// snapshotSessions returns the open sessions at this instant.
func (s *Server) snapshotSessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// janitor closes sessions whose last ingest is older than IdleTimeout —
// the cleanup path for HTTP sessions, whose clients may simply vanish.
func (s *Server) janitor() {
	period := s.cfg.IdleTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
			for _, sess := range s.snapshotSessions() {
				if sess.lastActive.Load() < cutoff {
					s.logf("session %s idle, closing", sess.id)
					sess.Close("idle timeout")
				}
			}
		}
	}
}

// Shutdown stops accepting new sessions and connections, closes every
// open session (each monitor loop drains the events its transports
// already enqueued) and every connection waiting between sessions, and
// waits for all loops and connection handlers to exit, or for ctx to
// expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lnMu.Lock()
	s.draining.Store(true)
	lns, idle := s.lns, s.idle
	s.lns, s.idle = nil, nil
	s.lnMu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	for _, ln := range lns {
		ln.Close()
	}
	for conn := range idle {
		conn.Close() // its handler is parked in a read with no session to drain
	}
	for _, sess := range s.snapshotSessions() {
		sess.Close("server shutting down")
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
