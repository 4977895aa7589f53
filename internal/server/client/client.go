// Package client is the Go client for hbserver's TCP frame protocol:
// it opens a detection session, streams init/event frames, surfaces
// pushed verdict frames, and runs snapshot queries. An Observer adapter
// lets a dist-instrumented program report its computation to a remote
// server as it executes.
//
// With Config.Reconnect the session is fault tolerant: frames carry
// sequence numbers, a bounded in-flight buffer holds everything the
// server has not yet acked, and a lost connection triggers automatic
// redial with exponential backoff and jitter followed by a resume
// handshake that replays exactly the unaccepted suffix. The server
// dedupes on seq and the client dedupes pushed frames on idx, so a
// resumed session's verdicts and determining prefixes are identical to
// an uninterrupted run.
package client

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/pir"
	"repro/internal/server"
)

// Config describes the session to open.
type Config struct {
	// Processes is the process count of the monitored computation.
	Processes int
	// Watches are the predicate watches to register.
	Watches []server.Watch
	// DialTimeout bounds connect and handshake (default 5s).
	DialTimeout time.Duration

	// Key is a client-chosen session key for cluster placement: the hello
	// carries it, it becomes the session id, and the consistent-hash ring
	// decides which node hosts it. Requires Reconnect (keyed sessions are
	// replicated, which needs sequenced frames).
	Key string
	// Peers is the cluster membership, enabling ring-aware dialing: the
	// client computes the key's placement order, dials the owner first,
	// fails over to successors when a node is unreachable or does not
	// know the session, and follows not-owner redirects. Requires Key.
	Peers []string
	// RingSeed is the placement seed (default cluster.DefaultRingSeed);
	// it must match the server's -cluster-seed.
	RingSeed uint64

	// Reconnect opens the session as resumable and enables automatic
	// reconnection: event methods never fail on a dropped connection —
	// frames buffer (bounded by BufferLimit, applying backpressure when
	// full) and replay after the resume handshake.
	Reconnect bool
	// MaxAttempts bounds consecutive failed reconnect attempts per
	// outage before the session fails sticky (default 8).
	MaxAttempts int
	// BackoffBase is the first retry delay; attempt n waits
	// BackoffBase·2ⁿ with jitter, capped at BackoffMax (defaults 25ms
	// and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the deterministic backoff jitter (default 1).
	JitterSeed int64
	// BufferLimit caps the in-flight (unacked) frame buffer; writes
	// block when it is full (default 1024). Must exceed the server's
	// ack interval or writers and acks deadlock.
	BufferLimit int
	// Dial overrides the dialer — the hook fault-injection tests use to
	// hand the session deliberately unreliable connections. A session
	// with its own dialer neither takes a connection from the idle pool
	// nor leaves one in it.
	Dial func(addr string) (net.Conn, error)

	// Bounded opens the session in bounded retained-state mode: the
	// server keeps only the watch slice cursors, never the raw prefix,
	// so long-lived sessions hold O(slice) server memory. Watch verdicts
	// are unchanged; Snapshot requests are rejected by the server.
	Bounded bool

	// Durability overrides the node's cluster durability mode for this
	// session: "durable" gates acks on every configured replica holding
	// the frame (riding out replica outages instead of shrinking the
	// gate), "available" acks once the live majority-of-the-moment has
	// it, "" accepts the node default. Only meaningful on keyed sessions
	// against a cluster.
	Durability string

	// Encoding selects the ingest wire encoding. "" or "ndjson" streams
	// one JSON frame per event. "binary" negotiates the binary batched
	// encoding at hello time: init/event frames accumulate into column
	// batches (flushed at BatchSize, before any snapshot or bye, or
	// explicitly via Flush) and travel as length-prefixed binary frames
	// — one syscall, one seq, and one ack per batch instead of per
	// event. Verdict delivery and semantics are identical; only the
	// frame boundaries and Event granularity of acks change.
	Encoding string
	// BatchSize caps events per binary batch (default 64). Larger
	// batches amortize more but delay verdicts for events held back;
	// Flush bounds the delay explicitly.
	BatchSize int
}

// Stats counts the reconnect machinery's work, for tests and the
// benchmark's cluster-replicated workload.
type Stats struct {
	// Reconnects is how many resume handshakes completed.
	Reconnects int
	// Replayed is how many buffered frames were retransmitted.
	Replayed int
	// Outage is the total wall-clock time spent disconnected.
	Outage time.Duration
}

// errDisconnected reports a write attempted while the connection is
// down in reconnect mode; sequenced frames are buffered instead.
var errDisconnected = errors.New("client: disconnected (reconnecting)")

// ErrNotOwner reports a handshake rejected because the dialed node does
// not host the session's placement; Owner is the node to dial instead.
// Ring-aware sessions (Config.Peers) follow the redirect automatically;
// single-address sessions surface it — extract with errors.As — so
// callers can re-dial rather than misclassify an ownership move as a
// fatal protocol error.
type ErrNotOwner struct {
	Owner string
}

func (e *ErrNotOwner) Error() string {
	return fmt.Sprintf("client: node does not own the session (owner %s)", e.Owner)
}

// resumeError is a handshake rejected by the server, with its
// machine-readable code. Only server.CodeBusy is retried.
type resumeError struct {
	code  string
	msg   string
	owner string // redirect target on CodeNotOwner
}

func (e *resumeError) Error() string { return fmt.Sprintf("%s (%s)", e.msg, e.code) }

// Unwrap exposes an ownership rejection as the typed ErrNotOwner. A
// stale-epoch rejection is the same shape: the dialed node's copy of
// the session was fenced by a newer incarnation, and owner is where it
// lives now.
func (e *resumeError) Unwrap() error {
	if e.code == server.CodeNotOwner || e.code == server.CodeStaleEpoch {
		return &ErrNotOwner{Owner: e.owner}
	}
	return nil
}

// snapWaiter is one pending snapshot query: the response channel and
// the request frame, kept so a resume can re-issue it if the response
// was lost with the connection.
type snapWaiter struct {
	ch chan server.ServerFrame
	f  server.ClientFrame
}

// Session is an open client session. Event methods take 0-based process
// indices, matching the engine packages; the wire carries 1-based ids.
// Methods are safe for concurrent use; events are written in call order.
type Session struct {
	cfg Config
	id  string

	// candidates is the dial list in placement order (owner first); cand
	// indexes the current choice. Single-address sessions have exactly
	// one candidate. Guarded by wmu.
	candidates []string
	cand       int

	wmu     sync.Mutex // serializes writes, the msg-id counter, and connection state
	space   *sync.Cond // on wmu; signaled when the outbox shrinks or state changes
	conn    net.Conn   // current connection; nil while disconnected
	addr    string     // the candidate conn was dialed at, its idle pool key; "" once a resume installed conn, which is never pooled
	nextMsg int
	nextSeq int64
	acked   int64                // highest seq the server confirmed applied or accepted
	outbox  []server.ClientFrame // unacked sequenced frames, ascending seq
	err     error                // sticky; set by the first unrecoverable failure
	failed  chan struct{}        // closed alongside the sticky error, to unblock waiters
	failOne sync.Once
	rejoin  bool  // a reconnect loop is running (single flight)
	byeSent bool  // Close initiated; a resume re-sends the bye
	byeSeq  int64 // the bye's sequence number, for exactly-once re-send
	stats   Stats
	pol     *backoff.Policy // reconnect delays, made at the first retry; only Dial's loop and then the single-flight reconnect loop use it

	// Binary batching state (guarded by wmu). pending accumulates
	// init/event frames until a flush turns them into one batch frame;
	// enc interns variable names per session and connection (reset on
	// every reconnect, mirroring the server's per-session decode table);
	// pbuf/wbuf are reused encode buffers, wbuf for NDJSON lines too.
	pending *pir.Batch
	enc     pir.VarTable
	pbuf    []byte
	wbuf    []byte

	mu       sync.Mutex
	frames   []server.ServerFrame // latched verdict/error pushes, in order
	lastIdx  int                  // highest recorded-frame idx seen, for replay dedupe
	snaps    map[int]*snapWaiter
	nextSnap int
	goodbye  *server.ServerFrame
	spent    net.Conn // the connection the goodbye arrived on, nothing buffered behind it

	verdicts chan server.ServerFrame // made by the first Verdicts call; guarded by mu
	done     chan struct{}           // closed when the session is over (goodbye or fatal)
	doneOne  sync.Once
}

// Dial connects to an hbserver TCP listener, performs the hello/welcome
// handshake, and starts the frame reader.
func Dial(addr string, cfg Config) (*Session, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
		if len(cfg.Peers) > 1 {
			// Ring-aware outages need budget for a hysteretic sweep of the
			// whole membership before giving up.
			cfg.MaxAttempts = 8 * len(cfg.Peers)
		}
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	if cfg.BufferLimit <= 0 {
		cfg.BufferLimit = 1024
	}
	if err := server.ValidateEncoding(cfg.Encoding); err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	candidates, err := dialCandidates(addr, cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:        cfg,
		candidates: candidates,
		snaps:      make(map[int]*snapWaiter),
		done:       make(chan struct{}),
		failed:     make(chan struct{}),
	}
	s.space = sync.NewCond(&s.wmu)
	hello := server.ClientFrame{
		Type:       server.FrameHello,
		Processes:  cfg.Processes,
		Watches:    cfg.Watches,
		Resumable:  cfg.Reconnect,
		Bounded:    cfg.Bounded,
		Session:    cfg.Key,
		Encoding:   cfg.Encoding,
		Durability: cfg.Durability,
	}
	// Ring-aware open: try candidates in placement order, following
	// not-owner redirects, bounded at four sweeps so a misconfigured ring
	// cannot loop forever. Rotation is hysteretic — a node is given two
	// consecutive failures before the key moves to a successor — because
	// opening a keyed session anywhere but its owner costs an extra
	// replication hop for the whole session.
	var conn net.Conn
	var sc *server.FrameScanner
	var welcome server.ServerFrame
	first := hello
	streak := 0
	var dialed string
	for tries := 0; ; tries++ {
		dialed = s.curAddr()
		conn, sc, welcome, err = s.connect(dialed, first, tries == 0)
		if err == nil {
			break
		}
		var re *resumeError
		rejected := errors.As(err, &re)
		if tries+1 >= 4*len(candidates) {
			if rejected {
				return nil, fmt.Errorf("client: server rejected session: %w", re)
			}
			return nil, err
		}
		switch {
		case rejected && re.code == server.CodeBusy:
			// An orphan of an earlier attempt still looks attached; the
			// server notices the dead connection within its read deadline.
			streak = 0
		case rejected && re.code == server.CodeKeyInUse && cfg.Key != "" && cfg.Reconnect:
			// An earlier hello opened the session but the welcome was lost
			// in transit: adopt the orphan by resuming it instead.
			streak = 0
			first = server.ClientFrame{Type: server.FrameResume, Session: cfg.Key, Encoding: cfg.Encoding}
		case rejected && re.code == server.CodeUnknownSession && first.Type == server.FrameResume:
			// The orphan expired between attempts; open fresh.
			streak = 0
			first = hello
		case rejected && (re.code == server.CodeNotOwner || re.code == server.CodeStaleEpoch) && len(candidates) > 1:
			streak = 0
			s.followRedirect(re.owner)
		case rejected:
			return nil, fmt.Errorf("client: server rejected session: %w", re)
		case len(candidates) > 1:
			if streak++; streak >= 2 {
				streak = 0
				s.advanceAddr() // node looks down; a successor may accept the keyed hello
			}
		default:
			return nil, err
		}
		time.Sleep(s.backoff(tries))
	}
	s.conn, s.addr = conn, dialed
	s.id = welcome.Session
	if welcome.Resumed {
		// Adopted an orphan: align the sequence space with whatever the
		// server already accepted under this key.
		s.nextSeq = welcome.Seq
		s.acked = welcome.Seq
		s.addr = "" // as in adopt, a resumed connection is never pooled
	}
	go s.read(conn, sc)
	return s, nil
}

// dialCandidates resolves the dial list: the key's placement order over
// Peers when configured, else just addr.
func dialCandidates(addr string, cfg Config) ([]string, error) {
	if cfg.Key != "" {
		if !cfg.Reconnect {
			return nil, errors.New("client: a session key requires Reconnect (keyed sessions are replicated)")
		}
		if err := server.ValidateKey(cfg.Key); err != nil {
			return nil, fmt.Errorf("client: %v", err)
		}
	}
	if len(cfg.Peers) == 0 {
		if addr == "" {
			return nil, errors.New("client: no address to dial")
		}
		return []string{addr}, nil
	}
	if cfg.Key == "" {
		return nil, errors.New("client: Peers requires a session Key for placement")
	}
	seed := cfg.RingSeed
	if seed == 0 {
		seed = cluster.DefaultRingSeed
	}
	ring, err := cluster.NewRing(cfg.Peers, seed)
	if err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	candidates := ring.Successors(cfg.Key, len(cfg.Peers))
	if addr != "" {
		// An explicit addr is tried first when it is a member — useful to
		// pin the first dial in tests; placement order follows.
		for i, c := range candidates {
			if c == addr {
				candidates[0], candidates[i] = candidates[i], candidates[0]
				break
			}
		}
	}
	return candidates, nil
}

// curAddr returns the current dial target.
func (s *Session) curAddr() string {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.candidates[s.cand]
}

// advanceAddr rotates to the next candidate node.
func (s *Session) advanceAddr() {
	s.wmu.Lock()
	s.cand = (s.cand + 1) % len(s.candidates)
	s.wmu.Unlock()
}

// followRedirect jumps to the redirect target when it is a known
// candidate, else just advances.
func (s *Session) followRedirect(owner string) {
	s.wmu.Lock()
	for i, c := range s.candidates {
		if c == owner {
			s.cand = i
			s.wmu.Unlock()
			return
		}
	}
	s.cand = (s.cand + 1) % len(s.candidates)
	s.wmu.Unlock()
}

// connect performs one handshake (hello or resume) on a connection to
// addr, returning the connection, its scanner (which may have buffered
// frames past the welcome), and the welcome frame. With pooled set it
// first tries a connection kept in the idle pool. A kept connection the
// server has closed meanwhile fails its handshake with anything but a
// rejection; it costs that one round trip, and connect dials fresh at
// once.
func (s *Session) connect(addr string, first server.ClientFrame, pooled bool) (net.Conn, *server.FrameScanner, server.ServerFrame, error) {
	if pooled && s.cfg.Dial == nil {
		if conn := takeIdle(addr); conn != nil {
			conn, sc, welcome, err := s.handshake(conn, first)
			var re *resumeError
			if err == nil || errors.As(err, &re) {
				return conn, sc, welcome, err
			}
		}
	}
	var conn net.Conn
	var err error
	if s.cfg.Dial != nil {
		conn, err = s.cfg.Dial(addr)
	} else {
		conn, err = net.DialTimeout("tcp", addr, s.cfg.DialTimeout)
	}
	if err != nil {
		return nil, nil, server.ServerFrame{}, fmt.Errorf("client: %w", err)
	}
	return s.handshake(conn, first)
}

// handshake sends first on conn and reads the answer; on any failure it
// closes conn.
func (s *Session) handshake(conn net.Conn, first server.ClientFrame) (net.Conn, *server.FrameScanner, server.ServerFrame, error) {
	var zero server.ServerFrame
	conn.SetDeadline(time.Now().Add(s.cfg.DialTimeout))
	var buf []byte
	if err := writeClientFrame(conn, &buf, first); err != nil {
		conn.Close()
		return nil, nil, zero, fmt.Errorf("client: handshake: %w", err)
	}
	sc := newScanner(conn)
	if !sc.Scan() {
		conn.Close()
		if err := sc.Err(); err != nil {
			return nil, nil, zero, fmt.Errorf("client: handshake: %w", err)
		}
		return nil, nil, zero, errors.New("client: server closed connection during handshake")
	}
	var welcome server.ServerFrame
	if err := decodeServerFrame(sc.Bytes(), &welcome); err != nil {
		conn.Close()
		return nil, nil, zero, fmt.Errorf("client: handshake: %w", err)
	}
	switch welcome.Type {
	case server.FrameWelcome:
	case server.FrameError:
		conn.Close()
		return nil, nil, zero, &resumeError{code: welcome.Code, msg: welcome.Error, owner: welcome.Owner}
	default:
		conn.Close()
		return nil, nil, zero, fmt.Errorf("client: expected welcome, got %q", welcome.Type)
	}
	conn.SetDeadline(time.Time{})
	return conn, sc, welcome, nil
}

// ID returns the server-assigned session id.
func (s *Session) ID() string { return s.id }

// Err returns the sticky session error, if any: the first unrecoverable
// write, read, or reconnect failure, after which all event methods are
// no-ops. Transient connection loss in reconnect mode is not an error.
func (s *Session) Err() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.err
}

// Stats returns the reconnect machinery's counters so far.
func (s *Session) Stats() Stats {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.stats
}

// verdictBuffer is how many pushed frames Verdicts holds for a consumer.
const verdictBuffer = 256

// Verdicts returns the channel of pushed verdict and error frames; every
// call returns the same channel. It holds up to 256 frames: if a consumer
// falls 256 frames behind, further pushes are shed (Latched still has
// everything). The channel is made by the first call, holding the first
// 256 frames latched before it — what it would hold had it been made at
// Dial — so a session nobody consumes this way never pays for it. It is
// never closed; select against Done to end consumption.
func (s *Session) Verdicts() <-chan server.ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.verdicts == nil {
		s.verdicts = make(chan server.ServerFrame, verdictBuffer)
		for _, fr := range s.frames[:min(len(s.frames), verdictBuffer)] {
			s.verdicts <- fr
		}
	}
	return s.verdicts
}

// Latched returns all verdict and error frames pushed so far, in order.
// Frames redelivered by a resume replay appear exactly once.
func (s *Session) Latched() []server.ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]server.ServerFrame(nil), s.frames...)
}

// Done returns a channel closed when the session is over: goodbye
// received, or reconnection abandoned.
func (s *Session) Done() <-chan struct{} { return s.done }

// Goodbye returns the final accounting frame, once received.
func (s *Session) Goodbye() *server.ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goodbye
}

// SetInitial streams an initial variable value for a process; call
// before that process's events.
func (s *Session) SetInitial(proc int, name string, value int) {
	s.write(server.ClientFrame{Type: server.FrameInit, Proc: proc + 1, Var: name, Value: value})
}

// Internal streams an internal event, with optional variable updates.
func (s *Session) Internal(proc int, sets map[string]int) {
	s.write(server.ClientFrame{Type: server.FrameEvent, Proc: proc + 1, Kind: "internal", Sets: sets})
}

// Send streams a send event and returns the message id to pass to the
// matching Receive.
func (s *Session) Send(proc int, sets map[string]int) int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.nextMsg++
	id := s.nextMsg
	s.writeLocked(server.ClientFrame{Type: server.FrameEvent, Proc: proc + 1, Kind: "send", Msg: id, Sets: sets})
	return id
}

// SendMsg streams a send event with a caller-chosen message id — for
// callers that already have globally unique ids (e.g. the dist observer).
func (s *Session) SendMsg(proc, msg int, sets map[string]int) {
	s.write(server.ClientFrame{Type: server.FrameEvent, Proc: proc + 1, Kind: "send", Msg: msg, Sets: sets})
}

// Receive streams the receive of a previously sent message.
func (s *Session) Receive(proc, msg int, sets map[string]int) {
	s.write(server.ClientFrame{Type: server.FrameEvent, Proc: proc + 1, Kind: "receive", Msg: msg, Sets: sets})
}

// Snapshot asks the server to freeze the session's observed prefix and
// run an offline detection query on it. It blocks until the response
// frame arrives; Holds on the returned frame is the verdict. In
// reconnect mode the request survives connection loss: a resume
// re-issues any snapshot still awaiting its response.
func (s *Session) Snapshot(formula string) (server.ServerFrame, error) {
	s.mu.Lock()
	s.nextSnap++
	id := s.nextSnap
	f := server.ClientFrame{Type: server.FrameSnapshot, ID: id, Formula: formula}
	resp := make(chan server.ServerFrame, 1)
	s.snaps[id] = &snapWaiter{ch: resp, f: f}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.snaps, id)
		s.mu.Unlock()
	}()
	if err := s.write(f); err != nil {
		if !(s.cfg.Reconnect && errors.Is(err, errDisconnected)) {
			return server.ServerFrame{}, err
		}
		// Disconnected mid-outage: the pending request is registered and
		// will be re-issued by the resume handshake.
	}
	select {
	case fr := <-resp:
		if fr.Type == server.FrameError {
			return fr, fmt.Errorf("client: snapshot: %s", fr.Error)
		}
		return fr, nil
	case <-s.done:
		return server.ServerFrame{}, errors.New("client: session ended before snapshot response")
	case <-s.failed:
		return server.ServerFrame{}, s.Err()
	}
}

// Close sends the bye frame, waits for the server's goodbye (or the
// connection to end), releases the connection, and returns the final
// accounting frame when one was received. In reconnect mode a bye lost
// with the connection is re-sent by the resume handshake. A connection
// that carried the goodbye answering this bye, with no error and nothing
// after it, goes to the idle pool for the next Dial to its address;
// any other is closed.
func (s *Session) Close() (*server.ServerFrame, error) {
	// One critical section: byeSent and the bye's seq must be set
	// atomically with the write, or a concurrent resume could replay an
	// unsequenced bye that bypasses the server's gap check.
	s.wmu.Lock()
	answered := !s.isDone() // a goodbye still to come answers this bye
	s.byeSent = true
	err := s.writeLocked(server.ClientFrame{Type: server.FrameBye})
	s.wmu.Unlock()
	if s.cfg.Reconnect && errors.Is(err, errDisconnected) {
		err = nil
	}
	timeout := time.NewTimer(10 * time.Second)
	select {
	case <-s.done:
	case <-timeout.C:
		err = errors.New("client: timed out waiting for goodbye")
	}
	timeout.Stop()
	s.mu.Lock()
	spent, clean := s.spent, s.goodbye != nil && s.goodbye.Error == ""
	s.mu.Unlock()
	s.wmu.Lock()
	if s.conn != nil {
		if answered && clean && err == nil && s.err == nil && s.cfg.Dial == nil && s.addr != "" && s.conn == spent {
			putIdle(s.addr, s.conn)
		} else {
			s.conn.Close()
		}
		s.conn = nil // later writes must not reach a connection the pool hands on
	}
	s.wmu.Unlock()
	if gb := s.Goodbye(); gb != nil {
		return gb, nil
	}
	// No goodbye: the session is over regardless; make that state
	// sticky so reconnect machinery and waiters wind down.
	if err == nil {
		err = s.Err()
	}
	if err == nil {
		err = errors.New("client: connection ended without goodbye")
	}
	s.fail(err)
	s.finish()
	return nil, err
}

func (s *Session) write(f server.ClientFrame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.writeLocked(f)
}

// writeLocked routes one frame under wmu. On NDJSON sessions it is a
// straight send. With the binary encoding, init/event frames first
// accumulate into the pending batch — the batch is sent (as one
// sequenced frame) when it reaches BatchSize — and every other frame
// type flushes the batch first, so snapshots, byes, and explicit
// Flush calls always observe everything written before them in order.
func (s *Session) writeLocked(f server.ClientFrame) error {
	if s.err != nil {
		return s.err
	}
	if s.batching() && (f.Type == server.FrameInit || f.Type == server.FrameEvent) {
		s.bufferEventLocked(f)
		if s.pending.Len() >= s.cfg.BatchSize {
			return s.flushLocked()
		}
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.sendLocked(f)
}

// batching reports whether this session batches ingest frames.
func (s *Session) batching() bool { return s.cfg.Encoding == server.EncodingBinary }

// bufferEventLocked appends one init/event frame to the pending batch.
// Sets maps are copied now, so callers may reuse them.
func (s *Session) bufferEventLocked(f server.ClientFrame) {
	if s.pending == nil {
		s.pending = pir.GetBatch()
	}
	if f.Type == server.FrameInit {
		s.pending.AddInit(f.Proc, f.Var, f.Value)
		return
	}
	kind := pir.EvInternal
	switch f.Kind {
	case "send":
		kind = pir.EvSend
	case "receive":
		kind = pir.EvReceive
	}
	s.pending.AddEvent(f.Proc, kind, f.Msg, f.Sets)
}

// flushLocked sends the pending batch, if any, as one batch frame.
func (s *Session) flushLocked() error {
	if s.pending == nil || s.pending.Len() == 0 {
		return nil
	}
	b := s.pending
	s.pending = nil
	return s.sendLocked(server.ClientFrame{Type: server.FrameBatch, Batch: b})
}

// Flush sends any events held back by binary batching immediately; a
// no-op on NDJSON sessions and on an empty batch. Use it to bound
// verdict latency when a stream pauses between batch boundaries.
func (s *Session) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.flushLocked()
}

// sendLocked sends one frame under wmu. In reconnect mode, sequenced
// frames (init/event/batch/bye) take the next sequence number and
// enter the bounded in-flight buffer first — when the buffer is full
// the caller blocks until acks make room (backpressure) — and a write
// failure is not an error: the frame is safe in the buffer, the
// connection is torn down, and the reconnect loop takes over.
func (s *Session) sendLocked(f server.ClientFrame) error {
	sequenced := false
	if s.cfg.Reconnect && (f.Type == server.FrameInit || f.Type == server.FrameEvent || f.Type == server.FrameBatch || f.Type == server.FrameBye) {
		for len(s.outbox) >= s.cfg.BufferLimit && s.err == nil && !s.isDone() {
			s.space.Wait()
		}
		if s.err != nil {
			return s.err
		}
		if f.Type != server.FrameBye && s.isDone() {
			return errors.New("client: session ended")
		}
		s.nextSeq++
		f.Seq = s.nextSeq
		// The bye is sequenced — so a gap before it (a lost final event)
		// is detected instead of silently closing the session short —
		// but re-sent via byeSeq rather than the outbox, keeping the
		// replay order events → pending snapshots → bye.
		if f.Type == server.FrameBye {
			s.byeSeq = f.Seq
		} else {
			s.outbox = append(s.outbox, f)
		}
		sequenced = true
	}
	if s.conn == nil {
		if !s.cfg.Reconnect {
			return errors.New("client: connection closed")
		}
		if sequenced {
			return nil // buffered; the resume replay delivers it
		}
		return errDisconnected
	}
	if err := s.writeWire(s.conn, f); err != nil {
		if s.cfg.Reconnect {
			s.dropConnLocked()
			if sequenced {
				return nil
			}
			return errDisconnected
		}
		s.failLocked(fmt.Errorf("client: write: %w", err))
		return s.err
	}
	if f.Type == server.FrameBatch && !s.cfg.Reconnect {
		// Without a reconnect outbox the batch is dead once written;
		// return it to the pool for the next flush. (Reconnect-mode
		// batches live in the outbox until acked and are simply left to
		// the GC.)
		f.Batch.Recycle()
	}
	return nil
}

// writeWire writes one frame on conn under wmu: batch frames as binary
// (one length-prefixed frame, reused buffers, names interned through
// the per-connection table), everything else as an NDJSON line.
func (s *Session) writeWire(conn net.Conn, f server.ClientFrame) error {
	if f.Type == server.FrameBatch {
		s.pbuf = pir.AppendBatch(s.pbuf[:0], f.Seq, f.Batch, &s.enc)
		s.wbuf = server.AppendBinaryFrame(s.wbuf[:0], server.BinBatch, s.pbuf)
		_, err := conn.Write(s.wbuf)
		return err
	}
	return writeClientFrame(conn, &s.wbuf, f)
}

// read is the frame reader for one connection: it routes acks to the
// in-flight buffer, snapshot responses to their waiters, stores the
// goodbye frame, and pushes everything else — deduped on idx across
// resume replays — to the verdict stream.
func (s *Session) read(conn net.Conn, sc *server.FrameScanner) {
	for sc.Scan() {
		var fr server.ServerFrame
		if err := decodeServerFrame(sc.Bytes(), &fr); err != nil {
			s.readerGone(conn, fmt.Errorf("client: read: %w", err))
			return
		}
		switch {
		case fr.Type == server.FrameGoodbye:
			s.mu.Lock()
			s.goodbye = &fr
			if sc.Buffered() == 0 {
				s.spent = conn
			}
			s.mu.Unlock()
			s.finish()
			return
		case fr.Type == server.FrameAck && fr.ID == 0 && fr.Seq > 0:
			s.handleAck(fr.Seq)
		case fr.Type == server.FrameError && fr.ID == 0 && fr.Code != "":
			// Transport-level signal (seq gap, bad seq): the server is
			// about to drop the connection and the reconnect machinery
			// recovers. Not a detection verdict; keep it out of Latched
			// so resumed runs stay bit-identical to uninterrupted ones.
		case (fr.Type == server.FrameSnapshot || fr.Type == server.FrameError) && fr.ID > 0:
			s.mu.Lock()
			w := s.snaps[fr.ID]
			s.mu.Unlock()
			if w != nil {
				// Non-blocking: a re-issued snapshot can answer twice,
				// and the second response must not wedge the reader.
				select {
				case w.ch <- fr:
				default:
				}
				continue
			}
			s.record(fr)
		default:
			s.record(fr)
		}
	}
	var err error
	if scErr := sc.Err(); scErr != nil {
		err = fmt.Errorf("client: read: %w", scErr)
	}
	s.readerGone(conn, err)
}

// record stores a pushed frame and forwards it to the verdict stream,
// dropping resume-replay duplicates by their recorded-frame idx.
func (s *Session) record(fr server.ServerFrame) {
	s.mu.Lock()
	if fr.Idx > 0 {
		if fr.Idx <= s.lastIdx {
			s.mu.Unlock()
			return
		}
		s.lastIdx = fr.Idx
	}
	s.frames = append(s.frames, fr)
	if s.verdicts != nil {
		// Under mu, so that a first Verdicts call sees each frame either in
		// the record it seeds from or on the channel, never both.
		select {
		case s.verdicts <- fr:
		default: // consumer behind; Latched keeps the full record
		}
	}
	s.mu.Unlock()
}

// readerGone handles the end of a connection's read loop (err is nil on
// clean EOF). In reconnect mode any end — EOF or error — is an outage:
// start the reconnect loop if this reader's connection is still current.
// Plain sessions die with their connection, exactly as before resume
// existed: surface read errors sticky and end the session, unblocking
// snapshot waiters and Close.
func (s *Session) readerGone(conn net.Conn, err error) {
	if s.cfg.Reconnect {
		if s.isDone() {
			return
		}
		s.wmu.Lock()
		if s.conn == conn {
			s.dropConnLocked()
		}
		s.wmu.Unlock()
		return
	}
	if err != nil {
		s.fail(err)
	}
	s.finish()
}

// Acked returns the highest sequence number the server has confirmed —
// in a durable-mode cluster session, the prefix guaranteed to survive
// any single node failure. Chaos tests pin the loss window against it.
func (s *Session) Acked() int64 {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.acked
}

// handleAck releases every in-flight frame the server confirmed.
func (s *Session) handleAck(seq int64) {
	s.wmu.Lock()
	if seq > s.acked {
		s.acked = seq
		s.pruneOutboxLocked(seq)
		s.space.Broadcast()
	}
	s.wmu.Unlock()
}

// pruneOutboxLocked drops every frame with a sequence number ≤ seq from
// the head of the outbox, in place: the survivors move down, and the
// vacated tail is cleared so the dropped frames' batches are released.
func (s *Session) pruneOutboxLocked(seq int64) {
	i := 0
	for i < len(s.outbox) && s.outbox[i].Seq <= seq {
		i++
	}
	if i > 0 {
		n := copy(s.outbox, s.outbox[i:])
		clear(s.outbox[n:])
		s.outbox = s.outbox[:n]
	}
}

// dropConnLocked tears down the current connection and starts the
// single-flight reconnect loop. Callers hold wmu.
func (s *Session) dropConnLocked() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	if s.rejoin || s.err != nil || s.isDone() {
		return
	}
	s.rejoin = true
	go s.reconnectLoop()
}

// reconnectLoop redials with exponential backoff + jitter and performs
// the resume handshake until it succeeds, the session ends, or
// MaxAttempts consecutive attempts fail. Exactly one loop runs at a
// time (the rejoin flag), so rng and the handshake are race-free.
//
// With multiple candidates (ring-aware sessions) the loop also rotates
// nodes: repeated dial failures or an unknown-session rejection move on
// to the next successor — after a node death the session's replica
// legitimately answers where the home node cannot — and a not-owner
// redirect jumps straight to the indicated owner. Rotation on plain
// dial/I/O failure is hysteretic (three consecutive failures) so one
// faulted handshake does not move the session off a live owner and
// trigger an unnecessary replica promotion. Unknown-session (or
// stale-replica bad-seq) rejections fail sticky only after a full sweep
// of candidates agrees the session is gone.
func (s *Session) reconnectLoop() {
	outage := time.Now()
	unknown := 0 // consecutive unknown/bad-seq rejections across candidates
	streak := 0  // consecutive dial/I/O failures on the current candidate
	for attempt := 0; ; attempt++ {
		if s.isDone() || s.Err() != nil {
			s.endRejoin()
			return
		}
		if attempt >= s.cfg.MaxAttempts {
			s.fail(fmt.Errorf("client: giving up after %d reconnect attempts", attempt))
			s.finish()
			s.endRejoin()
			return
		}
		time.Sleep(s.backoff(attempt))
		s.wmu.Lock()
		acked := s.acked
		byeSent := s.byeSent
		addr := s.candidates[s.cand]
		ringAware := len(s.candidates) > 1
		s.wmu.Unlock()
		conn, sc, welcome, err := s.connect(addr, server.ClientFrame{Type: server.FrameResume, Session: s.id, Seq: acked, Encoding: s.cfg.Encoding}, false)
		if err != nil {
			var re *resumeError
			if !errors.As(err, &re) {
				if ringAware {
					if streak++; streak >= 3 {
						streak = 0
						s.advanceAddr() // the node looks dead; try a successor
					}
				}
				continue // dial or I/O failure: retry
			}
			streak = 0
			switch {
			case re.code == server.CodeBusy:
				// The server has not yet noticed the dead connection
				// (its reader is waiting out the read deadline); retry.
				continue
			case (re.code == server.CodeNotOwner || re.code == server.CodeStaleEpoch) && ringAware:
				// Not-owner: wrong node. Stale-epoch: this node's copy of
				// the session was fenced by a newer incarnation (failover,
				// drain handoff, key reuse) — either way the redirect names
				// where the live incarnation is.
				unknown = 0
				s.followRedirect(re.owner)
				continue
			case re.code == server.CodeUnknownSession && byeSent:
				// The bye was delivered but the goodbye was lost with
				// the connection: the session is over, not broken.
				s.finish()
				s.endRejoin()
				return
			case (re.code == server.CodeUnknownSession || re.code == server.CodeBadSeq) && ringAware:
				// This node does not have the session (or holds a stale
				// replica); a successor may. Only a full sweep of
				// unknowns means the session is really gone.
				if unknown++; unknown >= len(s.candidates) {
					s.fail(fmt.Errorf("client: resume rejected by every cluster node: %w", re))
					s.finish()
					s.endRejoin()
					return
				}
				s.advanceAddr()
				continue
			default:
				s.fail(fmt.Errorf("client: resume rejected: %w", re))
				s.finish()
				s.endRejoin()
				return
			}
		}
		unknown, streak = 0, 0
		if s.adopt(conn, sc, welcome.Seq, outage) {
			return
		}
		// Replay failed mid-write; the handshake did reach the server,
		// so this is a fresh outage.
		attempt = -1
	}
}

func (s *Session) endRejoin() {
	s.wmu.Lock()
	s.rejoin = false
	s.wmu.Unlock()
}

// adopt installs a freshly resumed connection: prunes the in-flight
// buffer below the server's accept high-water mark, replays the rest in
// order, re-issues pending snapshot queries (their responses may have
// died with the old connection) and the bye if Close already ran, then
// restarts the reader. Returns false if the connection died during the
// replay.
func (s *Session) adopt(conn net.Conn, sc *server.FrameScanner, serverSeq int64, outage time.Time) bool {
	s.mu.Lock()
	pending := make([]server.ClientFrame, 0, len(s.snaps))
	for _, w := range s.snaps {
		pending = append(pending, w.f)
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })

	s.wmu.Lock()
	defer s.wmu.Unlock()
	// The server's variable-interning table is per session on a
	// connection; start this connection's encoder table fresh so replayed
	// batches re-emit their name declarations.
	s.enc.Reset()
	if serverSeq > s.acked {
		// The server accepted more than it had acked before the outage.
		s.acked = serverSeq
		s.pruneOutboxLocked(serverSeq)
	}
	replay := s.outbox
	for _, f := range replay {
		if s.writeWire(conn, f) != nil {
			conn.Close()
			return false
		}
	}
	for _, f := range pending {
		if writeClientFrame(conn, &s.wbuf, f) != nil {
			conn.Close()
			return false
		}
	}
	if s.byeSent {
		if writeClientFrame(conn, &s.wbuf, server.ClientFrame{Type: server.FrameBye, Seq: s.byeSeq}) != nil {
			conn.Close()
			return false
		}
	}
	// A resumed connection is never pooled: its goodbye may be a terminal
	// replay's, after which the server closes it.
	s.conn, s.addr = conn, ""
	s.rejoin = false
	s.stats.Reconnects++
	s.stats.Replayed += len(replay)
	s.stats.Outage += time.Since(outage)
	s.space.Broadcast()
	go s.read(conn, sc)
	return true
}

// backoff returns the delay before reconnect attempt n: the exponential
// floor plus deterministic jitter over its upper half. The policy, whose
// jitter source is ≈ 5 KB, is made at the first retry, so a session that
// never retries never pays for it; the delays are the same either way.
func (s *Session) backoff(attempt int) time.Duration {
	if s.pol == nil {
		s.pol = backoff.New(s.cfg.BackoffBase, s.cfg.BackoffMax, s.cfg.JitterSeed)
	}
	return s.pol.Delay(attempt)
}

func (s *Session) fail(err error) {
	s.wmu.Lock()
	s.failLocked(err)
	s.wmu.Unlock()
}

// failLocked records the sticky error and unblocks everyone waiting on
// the session: buffered writers (space) and snapshot waiters (failed),
// which previously could hang until the reader happened to exit.
func (s *Session) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	s.failOne.Do(func() { close(s.failed) })
	s.space.Broadcast()
}

// finish marks the session over. Idempotent.
func (s *Session) finish() {
	s.doneOne.Do(func() { close(s.done) })
	s.space.Broadcast()
}

func (s *Session) isDone() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}
