package server

import (
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
	// Recover is consulted when a resume names a session with no live or
	// morgue state: a replica node rebuilds it from the replicated
	// journal and returns the live session (or nil after replaying a
	// journal that ended in a bye — the morgue then serves the terminal
	// replay). Returning (nil, *RejectError) redirects or rejects;
	// (nil, nil) with no local knowledge means unknown-session.
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

	// The session table is sharded by id (shard.go): per-shard locks,
	// with the global invariants — MaxSessions, the morgue bound, id
	// assignment, draining — carried by atomics. live is reserved
	// before insert and rolled back on rejection, so the session cap
	// stays exact without any global lock.
	shards   [numShards]tableShard
	live     atomic.Int64 // open sessions (and in-flight opens)
	morgued  atomic.Int64 // morgue entries across all shards
	nextID   atomic.Int64
	draining atomic.Bool

	lnMu sync.Mutex
	lns  []net.Listener

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
	for i := range s.shards {
		s.shards[i].sessions = make(map[string]*Session)
		s.shards[i].morgue = make(map[string]morgueEntry)
		s.shards[i].tombstones = make(map[string]tombstone)
	}
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
	if s.draining.Load() {
		return nil, fmt.Errorf("server: shutting down")
	}
	// Reserve a session slot before touching any shard: the cap is a
	// global invariant the per-shard locks cannot see.
	if s.live.Add(1) > int64(s.cfg.MaxSessions) {
		s.live.Add(-1)
		return nil, fmt.Errorf("server: session limit %d reached", s.cfg.MaxSessions)
	}
	id := cfg.ID
	if id == "" {
		id = fmt.Sprintf("s-%04d", s.nextID.Add(1))
	}
	sh := s.shard(id)
	sh.mu.Lock()
	// Checked under the shard lock so Shutdown's snapshot (which takes
	// every shard lock after setting draining) either sees this session
	// or this open sees draining — no session can leak past shutdown.
	if s.draining.Load() {
		sh.mu.Unlock()
		s.live.Add(-1)
		return nil, fmt.Errorf("server: shutting down")
	}
	if cfg.ID != "" {
		if _, taken := sh.sessions[id]; taken {
			sh.mu.Unlock()
			s.live.Add(-1)
			// Typed so clients can tell "my earlier hello opened this but
			// the welcome was lost" (recover by resuming the key) from a
			// plain rejection.
			return nil, &RejectError{Code: CodeKeyInUse,
				Msg: fmt.Sprintf("server: session key %q already in use", id)}
		}
		// A fresh session under this key supersedes any terminal state a
		// previous incarnation left lingering for replay.
		if _, lingering := sh.morgue[id]; lingering {
			delete(sh.morgue, id)
			s.morgued.Add(-1)
		}
		delete(sh.tombstones, id)
	}
	sess := newSession(s, id, cfg.Processes, ws, cfg.Bounded)
	sess.resumable = cfg.Resumable
	sh.sessions[id] = sess
	sh.mu.Unlock()

	s.met.sessionsTotal.Inc()
	s.met.sessionsActive.Set(s.live.Load())
	s.logf("session %s opened: %d processes, %d watches (resumable=%v, bounded=%v)", id, cfg.Processes, len(ws), cfg.Resumable, cfg.Bounded)
	s.wg.Add(1)
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
// terminal state is then in the morgue for replay. Otherwise the returned
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
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[id]
}

// morgueEntry is the terminal state of a finished resumable session,
// lingering so a client whose last connection died between bye and
// goodbye can still resume and collect the recorded frames it missed —
// the TIME_WAIT of the resume protocol. Without it, verdicts latched
// just before close would be unrecoverable exactly when the network is
// at its worst.
type morgueEntry struct {
	welcome ServerFrame
	frames  []ServerFrame // the full latched record, Idx-stamped
	goodbye ServerFrame
	enqSeq  int64
	retired time.Time
}

// tombstone records that a session's key was taken over by a newer
// incarnation at owner — failover, drain handoff, or key reuse fenced
// this node's copy. A resume hitting it gets a typed stale-epoch
// redirect instead of unknown-session, so the old client follows the
// key to its new home rather than concluding its session is gone.
type tombstone struct {
	owner   string
	retired time.Time
}

// supersede replaces any live, morgue, or tombstone state for id with a
// tombstone redirecting to owner. A live session is kicked and closed
// without retiring into the morgue: its terminal record describes a
// fenced incarnation and must not shadow the authoritative one. The
// shard's expired tombstones are pruned here, as retire prunes the
// morgue, so a node fenced over many keys does not keep one per key.
func (s *Server) Supersede(id, owner, reason string) {
	ttl := s.morgueTTL()
	now := time.Now()
	sh := s.shard(id)
	sh.mu.Lock()
	sess := sh.sessions[id]
	if _, lingering := sh.morgue[id]; lingering {
		delete(sh.morgue, id)
		s.morgued.Add(-1)
	}
	for k, t := range sh.tombstones {
		if now.Sub(t.retired) > ttl {
			delete(sh.tombstones, k)
		}
	}
	sh.tombstones[id] = tombstone{owner: owner, retired: now}
	sh.mu.Unlock()
	if sess != nil {
		sess.superseded.Store(true)
		sess.Kick()
		sess.Close(reason)
	}
	s.logf("session %s superseded by %s: %s", id, owner, reason)
}

// lookupTombstone returns the supersession record of id, if any,
// pruning it once expired (same TTL as the morgue).
func (s *Server) lookupTombstone(id string) (tombstone, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.tombstones[id]
	if ok && time.Since(t.retired) > s.morgueTTL() {
		delete(sh.tombstones, id)
		return tombstone{}, false
	}
	return t, ok
}

// morgueTTL is how long a finished session lingers for terminal replay.
func (s *Server) morgueTTL() time.Duration {
	if s.cfg.IdleTimeout > 0 {
		return s.cfg.IdleTimeout
	}
	return 30 * time.Second
}

// retire parks a finished resumable session in the morgue, pruning
// this shard's expired entries and bounding the morgue near
// MaxSessions. The count is global (morgued) but eviction is
// shard-local — taking every shard lock to find the global-oldest
// would reintroduce the contention sharding removed — so the bound is
// MaxSessions within numShards.
func (s *Server) retire(id string, welcome ServerFrame, frames []ServerFrame, goodbye ServerFrame, enqSeq int64) {
	ttl := s.morgueTTL()
	now := time.Now()
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, e := range sh.morgue {
		if now.Sub(e.retired) > ttl {
			delete(sh.morgue, k)
			s.morgued.Add(-1)
		}
	}
	if s.morgued.Load() >= int64(s.cfg.MaxSessions) && len(sh.morgue) > 0 {
		var oldest string
		var oldestAt time.Time
		for k, e := range sh.morgue {
			if oldest == "" || e.retired.Before(oldestAt) {
				oldest, oldestAt = k, e.retired
			}
		}
		delete(sh.morgue, oldest)
		s.morgued.Add(-1)
	}
	if _, existed := sh.morgue[id]; !existed {
		s.morgued.Add(1)
	}
	sh.morgue[id] = morgueEntry{welcome: welcome, frames: frames, goodbye: goodbye, enqSeq: enqSeq, retired: now}
}

// lookupMorgue returns the lingering terminal state of id, if any.
func (s *Server) lookupMorgue(id string) (morgueEntry, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.morgue[id]
	if ok && time.Since(e.retired) > s.morgueTTL() {
		delete(sh.morgue, id)
		s.morgued.Add(-1)
		return morgueEntry{}, false
	}
	return e, ok
}

// resume reattaches a transport to a live resumable session. On success
// the attachment is installed atomically with the replay snapshot: the
// caller must write welcome (Seq = high-water accepted seq) and then the
// replayed frames before consuming att.ch, so the client sees exactly
// the record → push order an uninterrupted connection would have.
//
// A nil *Session with a nil error is a terminal replay: the session
// already finished but lingers in the morgue — the caller writes
// welcome and the replay (which ends with the goodbye) and closes.
// Failures carry a Code* constant; only CodeBusy is worth retrying.
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
	sess := s.Session(f.Session)
	if sess == nil {
		if e, ok := s.lookupMorgue(f.Session); ok {
			s.met.resumesOK.Inc()
			s.logf("session %s resumed from morgue (%d frames + goodbye to replay)", f.Session, len(e.frames))
			welcome := e.welcome
			welcome.Seq = e.enqSeq
			welcome.Resumed = true
			replay := append(append([]ServerFrame(nil), e.frames...), e.goodbye)
			return nil, welcome, replay, "", nil
		}
		// A tombstone means this node's copy of the key was fenced by a
		// newer incarnation elsewhere: redirect rather than recover — the
		// local journal, if any survives, is the stale one.
		if t, ok := s.lookupTombstone(f.Session); ok {
			s.met.resumesRej.Inc()
			return nil, ServerFrame{}, nil, CodeStaleEpoch, &RejectError{
				Code: CodeStaleEpoch, Owner: t.owner,
				Msg: fmt.Sprintf("server: session %q was superseded by a newer incarnation at %s", f.Session, t.owner),
			}
		}
		// Cluster mode: a replica may hold this session's replicated
		// journal and can rebuild it; failing that, redirect the client
		// toward the placement's owner rather than declaring the session
		// gone — only a node that could legitimately host the key may
		// answer unknown-session.
		if h := s.cfg.Cluster; h != nil && h.Recover != nil {
			rec, err := h.Recover(f.Session)
			if err != nil {
				s.met.resumesRej.Inc()
				var rej *RejectError
				if errors.As(err, &rej) {
					return nil, ServerFrame{}, nil, rej.Code, err
				}
				return nil, ServerFrame{}, nil, CodeUnknownSession, err
			}
			if rec != nil {
				sess = rec
			} else if e, ok := s.lookupMorgue(f.Session); ok {
				// The recovered journal ended in a bye: the rebuilt
				// session already finished into the morgue.
				s.met.resumesOK.Inc()
				s.logf("session %s recovered into terminal replay (%d frames)", f.Session, len(e.frames))
				welcome := e.welcome
				welcome.Seq = e.enqSeq
				welcome.Resumed = true
				replay := append(append([]ServerFrame(nil), e.frames...), e.goodbye)
				return nil, welcome, replay, "", nil
			}
		}
		if sess == nil {
			s.met.resumesRej.Inc()
			return nil, ServerFrame{}, nil, CodeUnknownSession,
				fmt.Errorf("server: no live session %q (never opened, expired, or closed)", f.Session)
		}
	}
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
}

// SessionCount returns the number of currently open sessions.
func (s *Server) SessionCount() int {
	return int(s.live.Load())
}

// Stats returns cumulative counters: sessions opened, events applied,
// events dropped — the shutdown summary.
func (s *Server) Stats() (sessions, events, dropped int64) {
	return s.met.sessionsTotal.Value(), s.met.events.Value(), s.met.dropped.Value()
}

// remove releases a finished session; called by the session's loop.
func (s *Server) remove(id string) {
	sh := s.shard(id)
	sh.mu.Lock()
	delete(sh.sessions, id)
	sh.mu.Unlock()
	s.met.sessionsActive.Set(s.live.Add(-1))
	s.logf("session %s closed", id)
}

// snapshotSessions returns the open sessions at this instant, one
// shard at a time.
func (s *Server) snapshotSessions() []*Session {
	out := make([]*Session, 0, s.live.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			out = append(out, sess)
		}
		sh.mu.Unlock()
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
// already enqueued), and waits for all loops and connection handlers to
// exit, or for ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lnMu.Lock()
	s.draining.Store(true)
	lns := s.lns
	s.lns = nil
	s.lnMu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	for _, ln := range lns {
		ln.Close()
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
