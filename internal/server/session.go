package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/pir"
	"repro/internal/predicate"
)

// Ingest errors.
var (
	// ErrClosed reports ingest into a session that is closing or closed.
	ErrClosed = errors.New("server: session closed")
	// ErrDropped reports an event shed by the drop overflow policy. The
	// drop is already counted on the session and the registry.
	ErrDropped = errors.New("server: event dropped (queue full)")
)

// SessionConfig describes a session to Open: the hello frame's payload.
type SessionConfig struct {
	// ID fixes the session id instead of auto-assigning one. Cluster mode
	// sets it to the client-chosen placement key; it must pass ValidateKey
	// and be unique among live sessions. Empty means auto-assign.
	ID        string
	Processes int
	Watches   []Watch
	// Resumable sessions triage sequenced frames (dup/gap), ack them,
	// and survive transport loss: a dropped connection detaches instead
	// of closing, and a resume frame reattaches. Resumable sessions
	// always apply backpressure — the drop overflow policy would break
	// the exactly-once contract.
	Resumable bool
	// Bounded sessions run their monitor in bounded-state mode: the raw
	// event prefix is not retained, only the frontier and the watches'
	// slice cursors, so per-session memory is O(n + slice) instead of
	// O(events). Verdicts and their cuts are bit-identical to an
	// unbounded session; snapshot queries are rejected.
	Bounded bool
	// Durability is the hello's requested cluster durability mode
	// ("available", "durable", or empty for the node default). The server
	// itself only carries the string; the cluster hooks interpret it.
	Durability string
}

// watchState tracks one registered watch through the session's lifetime.
// Only the monitor loop touches it after registration.
type watchState struct {
	op     string
	pred   string
	locals []predicate.VarCmp
	ef     *online.EFWatch
	ag     *online.AGWatch
	st     *online.StableWatch
	done   bool
}

// buildWatches parses and validates the watch list of a hello frame
// against the session's process count.
func buildWatches(n int, watches []Watch) ([]*watchState, error) {
	ws := make([]*watchState, 0, len(watches))
	for i, w := range watches {
		switch w.Op {
		case "EF", "AG", "STABLE":
		default:
			return nil, fmt.Errorf("server: watch %d: unknown op %q (want EF, AG or STABLE)", i, w.Op)
		}
		locals, err := online.ParseConj(w.Pred)
		if err != nil {
			return nil, fmt.Errorf("server: watch %d: %v", i, err)
		}
		for _, l := range locals {
			if l.Proc < 0 || l.Proc >= n {
				return nil, fmt.Errorf("server: watch %d: conjunct %s on process outside [1,%d]", i, l, n)
			}
		}
		ws = append(ws, &watchState{op: w.Op, pred: w.Pred, locals: locals})
	}
	return ws, nil
}

// unitKind says what a queued unit asks of the monitor loop.
type unitKind uint8

const (
	unitBatch    unitKind = iota // apply the rows of batch
	unitReject                   // report text as this unit's rejection
	unitSnapshot                 // run the offline query text on the prefix
	unitFlush                    // answer resp once everything before it is applied
)

// unitTypes names the kinds on the frame span's "type" attribute.
var unitTypes = [...]string{unitBatch: "batch", unitReject: "reject", unitSnapshot: "snapshot"}

// inFrame is one queued unit of ingest work. The transports turn wire
// frames into units (the TCP reader's gather, Session.Ingest for every
// other caller), so the monitor loop never sees a ClientFrame. The queue
// carries pointers to pooled units, so an idle session's queue is a
// slice of pointers, not QueueDepth units.
type inFrame struct {
	batch *pir.Batch       // unitBatch: the rows, recycled after apply
	resp  chan ServerFrame // non-nil for requests awaiting an in-band reply
	span  *obs.Span        // the unit's pipeline span (nil when tracing is off)
	enq   time.Time
	seq   int64  // the last seq the unit consumes (0 when unsequenced)
	text  string // unitReject: the rejection; unitSnapshot: the formula
	id    int    // echoed on the unit's rejections and snapshot answer
	kind  unitKind
}

// units recycles queue units; the monitor loop returns each one it took.
var units = sync.Pool{New: func() any { return new(inFrame) }}

// attachment is one transport subscription (a TCP connection's writer
// for one session). done is closed when the transport goes away, so an
// emit blocked on a full channel never wedges the monitor loop on a dead
// connection. The channel carries a frame per send, allocated by the
// sender, so an idle connection holds 64 pointers, not 64 frames. byeAt
// is when the connection's reader read the session's bye (unix nanos, 0
// before): from then on nothing parks in a read of this session.
type attachment struct {
	ch       chan *ServerFrame
	done     chan struct{}
	doneOnce sync.Once
	byeAt    atomic.Int64
}

func newAttachment() *attachment {
	return &attachment{ch: make(chan *ServerFrame, 64), done: make(chan struct{})}
}

// close marks the transport gone. Safe to call multiple times.
func (a *attachment) close() { a.doneOnce.Do(func() { close(a.done) }) }

// seqVerdict is the transport-side triage of a sequenced frame.
type seqVerdict int

const (
	seqAccept seqVerdict = iota // next-in-order: enqueue it
	seqDup                      // already accepted: drop idempotently
	seqGap                      // frames lost in flight: drop the connection
	seqBad                      // unsequenced ingest frame: drop the connection
)

// Session is one detection session: a bounded ingest queue feeding a
// serialized monitor loop. Transports enqueue concurrently; the loop is
// the only goroutine that touches the monitor and the watches, so
// detection state needs no locks and every verdict is attributed to the
// exact event prefix that determined it.
type Session struct {
	srv *Server
	id  string
	n   int

	queue chan *inFrame
	stop  chan struct{} // closed by Close: the loop drains and exits
	done  chan struct{} // closed when the loop has exited

	// Owned by the monitor loop.
	mon        *online.Monitor
	watches    []*watchState
	curSpan    *obs.Span // the frame span being applied (verdict spans parent here)
	registered bool      // watches registered (deferred until the first event)
	retained   int64     // last Retained() published to the gauge
	latched    int       // mon.Latched() at the last watch scan

	mu      sync.Mutex
	att     *attachment   // attached transport (TCP writer), nil for HTTP/detached sessions
	frames  []ServerFrame // latched verdict and error frames, for HTTP pull and resume replay
	goodbye *ServerFrame
	reason  string

	tracer *obs.Tracer // from Config; nil disables pipeline spans
	span   *obs.Span   // per-session root span (nil when tracing is off)

	resumable bool
	enqSeq    atomic.Int64 // high-water sequenced frame accepted by the transport
	ackSeq    atomic.Int64 // high-water sequenced frame applied by the loop
	dupes     atomic.Int64 // duplicate sequenced frames idempotently dropped
	journaled atomic.Int64 // events applied from sequenced frames (reconciles with events)

	events     atomic.Int64
	dropped    atomic.Int64
	lastActive atomic.Int64 // unix nanos of the last ingested frame
	latNanos   atomic.Int64 // summed ingest latency, for per-session stats
	superseded bool         // under srv.mu: fenced by a newer incarnation, so no replay is retired
	closeOnce  sync.Once
}

func newSession(srv *Server, id string, n int, watches []*watchState, bounded bool) *Session {
	mon := online.NewMonitor(n)
	if bounded {
		mon = online.NewBoundedMonitor(n)
	}
	s := &Session{
		srv:     srv,
		id:      id,
		n:       n,
		queue:   make(chan *inFrame, srv.cfg.QueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		mon:     mon,
		watches: watches,
		tracer:  srv.cfg.Tracer,
	}
	// The per-session root span: every frame span of this session parents
	// here, so one trace id covers the session's full pipeline traversal.
	s.span = s.tracer.Start("session")
	s.span.Set("service", "session").Set("session", id).Set("processes", n)
	s.lastActive.Store(time.Now().UnixNano())
	return s
}

// ID returns the server-assigned session id.
func (s *Session) ID() string { return s.id }

// N returns the session's process count.
func (s *Session) N() int { return s.n }

// Events returns the number of events applied to the monitor.
func (s *Session) Events() int64 { return s.events.Load() }

// Dropped returns the number of events shed by the overflow policy.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// Resumable reports whether the session survives transport loss.
func (s *Session) Resumable() bool { return s.resumable }

// AckedSeq returns the highest sequenced frame applied by the monitor
// loop — everything a client may safely release from its buffer.
func (s *Session) AckedSeq() int64 { return s.ackSeq.Load() }

// Duplicates returns the sequenced frames idempotently dropped.
func (s *Session) Duplicates() int64 { return s.dupes.Load() }

// Journaled returns the events applied from sequenced frames — counted
// where the seq is consumed, so on a resumable session it must equal
// Events, and the chaos suite asserts it (accepted == journaled ==
// detected).
func (s *Session) Journaled() int64 { return s.journaled.Load() }

// AvgIngest returns the mean enqueue-to-applied latency of this
// session's events — the per-session view of hb_server_ingest_seconds.
func (s *Session) AvgIngest() time.Duration {
	n := s.events.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.latNanos.Load() / n)
}

// Frames returns a copy of the latched verdict and error frames, in
// latch order — the pull interface used by the HTTP API.
func (s *Session) Frames() []ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ServerFrame(nil), s.frames...)
}

// Goodbye returns the final accounting frame once the session has
// finished (Done is closed), or nil before.
func (s *Session) Goodbye() *ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goodbye
}

// Done returns a channel closed when the monitor loop has exited and the
// session has been removed from the server.
func (s *Session) Done() <-chan struct{} { return s.done }

// spanCtx is the session root span's context; transport-side spans
// (accept, decode) parent here. Zero when tracing is off.
func (s *Session) spanCtx() obs.SpanContext { return s.span.Context() }

// Welcome returns the session's welcome frame.
func (s *Session) Welcome() ServerFrame {
	return ServerFrame{Type: FrameWelcome, Session: s.id, Processes: s.n, Watches: len(s.watches)}
}

// attach registers the transport subscriber; latched frames are pushed
// to it as they happen. Attach before ingesting, or pull via Frames.
func (s *Session) attach(att *attachment) {
	s.mu.Lock()
	s.att = att
	s.mu.Unlock()
}

// detach removes att if it is still the attached transport. A resumable
// session keeps running detached — frames latch into the record and a
// later resume replays them.
func (s *Session) detach(att *attachment) {
	s.mu.Lock()
	if s.att == att {
		s.att = nil
	}
	s.mu.Unlock()
	att.close()
}

// Kick severs the attached transport, if any: its reader unblocks and
// the connection tears down as if the client had vanished, while the
// session itself keeps running. The attachment pointer is deliberately
// left in place — the dying reader clears it via detach, and until then
// tryResume's busy check keeps a successor from ingesting interleaved.
// The cluster uses Kick to detach a client before a drain handoff and
// when a session is superseded by a newer incarnation.
func (s *Session) Kick() {
	s.mu.Lock()
	att := s.att
	s.mu.Unlock()
	if att != nil {
		att.close()
	}
}

// tryResume validates a resume request and, atomically with the checks,
// installs att and snapshots the recorded frames for replay. Holding mu
// across both means no frame can latch between the snapshot and the
// attachment — record-before-push plus replay-from-record is lossless.
// A second resume while a transport is attached is rejected (CodeBusy):
// the first loser of a connection must be detached — by its reader
// noticing the close, or by the read deadline — before a successor may
// take over, so two clients can never ingest interleaved.
func (s *Session) tryResume(clientSeq int64, att *attachment) (int64, []ServerFrame, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.resumable {
		return 0, nil, CodeNotResumable, errors.New("server: session is not resumable")
	}
	select {
	case <-s.stop:
		return 0, nil, CodeUnknownSession, errors.New("server: session closing")
	default:
	}
	if s.att != nil {
		return 0, nil, CodeBusy, errors.New("server: a transport is still attached (concurrent resume, or the previous connection has not timed out yet)")
	}
	enq := s.enqSeq.Load()
	if clientSeq > enq {
		return 0, nil, CodeBadSeq, fmt.Errorf("server: resume seq %d is ahead of anything accepted (%d)", clientSeq, enq)
	}
	if enq-clientSeq > int64(s.srv.cfg.RetentionWindow) {
		return 0, nil, CodeStaleSeq, fmt.Errorf("server: resume seq %d is %d frames behind, beyond the retention window %d",
			clientSeq, enq-clientSeq, s.srv.cfg.RetentionWindow)
	}
	s.att = att
	replay := append([]ServerFrame(nil), s.frames...)
	s.lastActive.Store(time.Now().UnixNano())
	return enq, replay, "", nil
}

// acceptSeq triages one sequenced frame on the attached transport:
// next-in-order advances the accept high-water mark, an already-accepted
// seq is a redelivery to drop, and anything further ahead means frames
// were lost — the transport must drop the connection and force a resume.
// Only the single attached transport calls this, so the read-then-store
// is race-free; the atomic makes the mark visible to tryResume.
func (s *Session) acceptSeq(seq int64) seqVerdict {
	enq := s.enqSeq.Load()
	switch {
	case seq <= enq:
		s.dupes.Add(1)
		s.srv.met.duplicates.Inc()
		return seqDup
	case seq == enq+1:
		s.enqSeq.Store(seq)
		return seqAccept
	default:
		return seqGap
	}
}

// Close stops the session: ingest ends, the monitor loop drains whatever
// was queued, emits the goodbye frame, and the session is removed from
// the server. Safe to call multiple times; the first reason wins.
func (s *Session) Close(reason string) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.reason = reason
		s.mu.Unlock()
		close(s.stop)
	})
}

// Ingest turns one frame into a queue unit and enqueues it: an init or
// event frame becomes a one-row batch, a batch frame its own batch once
// its columns validate, a snapshot frame a query whose answer is emitted
// to the attached transport. A frame that cannot become rows is queued as
// its rejection, so the error keeps its place in the stream. It is the
// one frame-to-unit adapter (HTTP /events, recovery replay, and the TCP
// reader's batch and snapshot frames); only the reader's gather of
// init/event lines builds units itself. When the queue is full the
// server's overflow policy applies: block propagates backpressure to the
// caller, drop sheds a batch without an init row (counted on the session
// and the registry). Inits, snapshots and rejections always block.
func (s *Session) Ingest(f ClientFrame) error {
	u := inFrame{id: f.ID, enq: time.Now()}
	var why string
	switch f.Type {
	case FrameInit, FrameEvent:
		u.seq, u.batch = f.Seq, pir.GetBatch()
		why = AppendRow(u.batch, &f, s.n)
	case FrameBatch:
		// Binary decode only constructs valid batches; JSON-decoded ones
		// (NDJSON clients) are untrusted shapes.
		u.seq, u.batch = f.Seq, f.Batch
		if f.Batch == nil {
			why = "batch frame without batch columns"
		} else if err := f.Batch.Validate(); err != nil {
			why = err.Error()
		}
	case FrameSnapshot:
		u.kind, u.text = unitSnapshot, f.Formula
	default:
		why = fmt.Sprintf("unknown frame type %q", f.Type)
	}
	if why != "" {
		u.batch.Recycle()
		u.batch, u.kind, u.text = nil, unitReject, why
	}
	return s.enqueue(u)
}

func (s *Session) enqueue(in inFrame) error {
	if s.tracer != nil && in.kind != unitFlush {
		// The unit span starts at ingest time and ends when the monitor
		// loop has applied the unit; its children are the pipeline stages.
		fs := s.tracer.StartAt("frame", s.span.Context(), in.enq)
		fs.Set("service", "transport").Set("type", unitTypes[in.kind])
		if in.batch != nil {
			fs.Set("rows", in.batch.Len())
		}
		if in.seq != 0 {
			fs.Set("seq", in.seq)
		}
		in.span = fs
	}
	start := time.Now()
	err := s.enqueueRaw(in)
	if in.kind != unitFlush { // flush barriers would skew the stage
		s.srv.met.stage(StageEnqueue, time.Since(start))
	}
	if err != nil {
		// The unit never reaches the monitor loop; close its spans here.
		in.batch.Recycle()
		if in.span != nil {
			s.tracer.StartAt("enqueue", in.span.Context(), in.enq).Set("service", "transport").End()
			in.span.Set("error", err.Error())
			in.span.End()
		}
	}
	return err
}

// enqueueRaw queues in, shedding it under OverflowDrop when it is a batch
// without an init row that the queue cannot take: the queue is full, or
// units are waiting (each at least one event) and its rows would take the
// queue past its depth. Into an empty queue a batch goes whole. Resumable
// sessions always block: shedding an accepted sequenced frame would
// violate exactly-once ingestion (the client has been told, via the seq
// high-water mark, not to resend it).
func (s *Session) enqueueRaw(in inFrame) error {
	if s.srv.cfg.Overflow == OverflowDrop && !s.resumable && in.kind == unitBatch && bytes.IndexByte(in.batch.Kinds, pir.EvInit) < 0 {
		n := in.batch.Len()
		if q := len(s.queue); q > 0 && q+n > cap(s.queue) {
			return s.shed(int64(n))
		}
		u := newUnit(in)
		select {
		case s.queue <- u:
			return nil
		case <-s.stop:
			freeUnit(u)
			return ErrClosed
		default:
			freeUnit(u)
			return s.shed(int64(n))
		}
	}
	u := newUnit(in)
	select {
	case s.queue <- u:
		return nil
	case <-s.stop:
		freeUnit(u)
		return ErrClosed
	}
}

// newUnit returns a pooled copy of in for the queue.
func newUnit(in inFrame) *inFrame {
	u := units.Get().(*inFrame)
	*u = in
	return u
}

// freeUnit clears u and returns it to the pool.
func freeUnit(u *inFrame) {
	*u = inFrame{}
	units.Put(u)
}

// shed counts n events dropped by the overflow policy.
func (s *Session) shed(n int64) error {
	s.dropped.Add(n)
	s.srv.met.dropped.Add(n)
	s.srv.met.shed.Add(n)
	return ErrDropped
}

// Flush blocks until every unit enqueued before it has been applied by
// the monitor loop — the barrier the HTTP batch ack uses so its
// accounting covers the batch it acknowledges.
func (s *Session) Flush() error {
	_, err := s.request(inFrame{kind: unitFlush})
	return err
}

// Snapshot freezes the session's observed prefix and runs an offline
// core.Detect query on it. The request is serialized with ingest through
// the session queue, so the verdict refers to a consistent prefix: every
// event enqueued before it is applied, none after.
func (s *Session) Snapshot(formula string, id int) (ServerFrame, error) {
	fr, err := s.request(inFrame{kind: unitSnapshot, text: formula, id: id, enq: time.Now()})
	if err == nil && fr.Type == FrameError {
		err = errors.New(fr.Error)
	}
	return fr, err
}

// request queues in with a reply channel and waits for the loop's answer.
// The loop answers every queued request, even while draining on Close, so
// waiting on done (not stop) cannot lose the answer.
func (s *Session) request(in inFrame) (ServerFrame, error) {
	in.resp = make(chan ServerFrame, 1)
	if err := s.enqueue(in); err != nil {
		return ServerFrame{}, err
	}
	select {
	case fr := <-in.resp:
		return fr, nil
	case <-s.done:
		select {
		case fr := <-in.resp:
			return fr, nil
		default:
			return ServerFrame{}, ErrClosed
		}
	}
}

// run is the monitor loop: the only goroutine that touches mon and the
// watch states. It exits when Close fires, after draining every frame
// that ingest managed to enqueue — the graceful-shutdown "drain" step.
func (s *Session) run() {
	defer s.srv.wg.Done()
	for {
		select {
		case u := <-s.queue:
			s.handle(u)
			freeUnit(u)
		case <-s.stop:
			for {
				select {
				case u := <-s.queue:
					s.handle(u)
					freeUnit(u)
				default:
					s.finish()
					return
				}
			}
		}
	}
}

// finish emits the goodbye frame, publishes it, and releases the session.
func (s *Session) finish() {
	s.ensureWatches() // a session with no events still settles its watches
	s.srv.met.retained.Add(-s.retained)
	s.retained = 0
	gb := ServerFrame{
		Type:    FrameGoodbye,
		Session: s.id,
		Events:  int(s.events.Load()),
		Dropped: int(s.dropped.Load()),
	}
	s.mu.Lock()
	if s.reason != "" && s.reason != "bye" {
		gb.Error = s.reason
	}
	s.goodbye = &gb
	att := s.att
	var rk *retiredKey
	if s.resumable {
		// The key keeps the terminal replay: a client whose connection
		// died between bye and goodbye resumes against it and still
		// collects every recorded frame exactly once.
		rk = &retiredKey{id: s.id, welcome: s.Welcome(), replay: append(append([]ServerFrame(nil), s.frames...), gb)}
		rk.welcome.Seq, rk.welcome.Resumed = s.enqSeq.Load(), true
	}
	s.mu.Unlock()
	// Removed before the goodbye is pushed: a client that has read its
	// goodbye finds the session gone from the table and the gauges.
	s.srv.remove(s, rk)
	if att != nil {
		select {
		case att.ch <- &gb:
		default: // writer backlogged; accounting still available via Goodbye
		}
	}
	s.span.Set("events", int(s.events.Load())).Set("dropped", int(s.dropped.Load()))
	if gb.Error != "" {
		s.span.Set("error", gb.Error)
	}
	s.span.End()
	close(s.done)
}

func (s *Session) handle(u *inFrame) {
	s.lastActive.Store(time.Now().UnixNano())
	if u.kind == unitFlush {
		u.resp <- ServerFrame{Type: FrameAck}
		return
	}
	// The enqueue span covers the send and the wait in the queue, so it
	// ends here, before the apply span starts. The apply span covers the
	// monitor step; verdict spans it latches parent under the unit span
	// via curSpan.
	s.tracer.StartAt("enqueue", u.span.Context(), u.enq).Set("service", "transport").End()
	applyStart := time.Now()
	as := u.span.StartChild("apply")
	as.Set("service", "monitor")
	s.curSpan = u.span
	switch u.kind {
	case unitBatch:
		s.noteSeq(u.seq, s.handleBatch(u))
		u.batch.Recycle() // no-op unless the batch came from the pool
	case unitReject:
		s.reject(u, u.text)
		s.noteSeq(u.seq, 0)
	case unitSnapshot:
		s.handleSnapshot(u)
	}
	s.curSpan = nil
	s.srv.met.stage(StageApply, time.Since(applyStart))
	as.Set("event", s.mon.Events())
	as.End()
	u.span.End()
}

// noteSeq finishes the monitor loop's side of a sequenced unit: the
// applied high-water mark advances (a rejected frame still consumes its
// seq — redelivering it must not re-error), and an ack is pushed whenever
// the seqs the unit applies cross a multiple of AckEvery, so the client
// can release its in-flight copies. A unit applies every seq from the
// previous mark up to its own: one for a client batch or a rejection,
// one per accepted line for a gathered batch. The transport guarantees
// in-order, gap-free, duplicate-free delivery into the queue, so the loop
// sees each seq exactly once in order; the guard is defensive. applied is
// the number of events the unit applied to the monitor, keeping the
// journaled == events reconciliation exact under batching.
func (s *Session) noteSeq(seq, applied int64) {
	if !s.resumable || seq == 0 {
		return
	}
	prev := s.ackSeq.Load()
	if seq <= prev {
		s.dupes.Add(1)
		s.srv.met.duplicates.Inc()
		return
	}
	s.ackSeq.Store(seq)
	if applied > 0 {
		s.journaled.Add(applied)
		s.srv.met.journaled.Add(applied)
	}
	if every := int64(s.srv.cfg.AckEvery); seq/every > prev/every {
		ack := seq
		if h := s.srv.cfg.Cluster; h != nil && h.AckGate != nil {
			// An ack releases the client's in-flight copy, so in cluster
			// mode it must not outrun replication durability: the gate
			// returns the highest seq safe to acknowledge right now. The
			// withheld tail is re-offered by Session.Ack when the gate
			// advances.
			ack = h.AckGate(s.id, seq)
		}
		if ack > 0 {
			s.emit(ServerFrame{Type: FrameAck, Session: s.id, Seq: ack, Event: s.mon.Events()}, false)
		}
	}
}

// Ack pushes an unrecorded ack frame for seq, clamped to the applied
// high-water mark. Cluster replication calls it when the durability gate
// advances past acks that noteSeq withheld; safe from any goroutine.
func (s *Session) Ack(seq int64) {
	if applied := s.ackSeq.Load(); seq > applied {
		seq = applied
	}
	if seq <= 0 {
		return
	}
	s.emit(ServerFrame{Type: FrameAck, Session: s.id, Seq: seq}, false)
}

// reject reports a non-fatal protocol error back to the client. The
// session keeps running: semantic errors are per-frame, and a lossy
// (drop-policy) session routinely produces them.
func (s *Session) reject(u *inFrame, msg string) {
	s.srv.met.protoErrors.Inc()
	fr := ServerFrame{Type: FrameError, Session: s.id, ID: u.id, Event: s.mon.Events(), Error: msg}
	if u.resp != nil {
		u.resp <- fr
		return
	}
	s.emit(fr, true)
}

// ensureWatches registers the watches on the monitor. Deferred until the
// first event (or snapshot/close) so init frames streamed after hello are
// visible to the watches' initial-state evaluation; verdicts determined
// by initial values alone latch at event 0.
func (s *Session) ensureWatches() {
	if s.registered {
		return
	}
	s.registered = true
	for _, w := range s.watches {
		switch w.op {
		case "EF":
			w.ef = s.mon.WatchEF(w.locals...)
		case "AG":
			w.ag = s.mon.WatchAG(w.locals...)
		case "STABLE":
			w.st = s.mon.WatchQuiescent(w.pred, w.locals...)
		}
	}
	s.checkWatches()
}

// AppendRow appends the row a single init/event frame carries to b: the
// one frame-to-row conversion, shared by the TCP reader's gather, Ingest
// and the cluster's log encoder, so the cluster logs the row the session
// applies. It returns the rejection text for what a batch
// row cannot carry — an unknown event kind, or a proc or msg that would
// alias another id when narrowed to the int32 columns — leaving b as it
// was, and "" once the row is appended. n is the session's process count,
// for the text.
func AppendRow(b *pir.Batch, f *ClientFrame, n int) string {
	kind, msg := pir.EvInit, 0
	if f.Type == FrameEvent {
		switch f.Kind {
		case "", "internal":
			kind = pir.EvInternal
		case "send":
			kind, msg = pir.EvSend, f.Msg
		case "receive":
			kind, msg = pir.EvReceive, f.Msg
		default:
			return fmt.Sprintf("unknown event kind %q", f.Kind)
		}
	}
	if f.Proc != int(int32(f.Proc)) {
		return fmt.Sprintf(online.RejectProcRange, f.Proc, n)
	}
	if msg != int(int32(msg)) {
		if kind == pir.EvReceive {
			return fmt.Sprintf(online.RejectUnknownMsg, msg) // no such send was ever accepted
		}
		return fmt.Sprintf(online.RejectMsgRange, msg)
	}
	if kind == pir.EvInit {
		b.AddInit(f.Proc, f.Var, f.Value)
	} else {
		b.AddEvent(f.Proc, kind, msg, f.Sets)
	}
	return ""
}

// handleBatch is the one place events reach the monitor. It applies the
// rows of a batch unit — a client batch frame, or the rows the TCP reader
// gathered or Ingest made of single frames — in order: per-row semantic
// errors are rejected individually and the rest of the batch continues,
// and every applied event checks the watches, so verdict determining
// prefixes do not depend on how the stream was split into frames. The
// monitor's Apply admits or rejects each event row. Only the process
// range is checked here first, because an init row and the watch
// registration an event row triggers both come before Apply. Returns the
// number of events applied (inits and rejected rows do not count).
func (s *Session) handleBatch(f *inFrame) int64 {
	b := f.batch
	var applied int64
	for i, n := 0, b.Len(); i < n; i++ {
		proc := int(b.Procs[i]) - 1
		if proc < 0 || proc >= s.n {
			s.reject(f, fmt.Sprintf(online.RejectProcRange, b.Procs[i], s.n))
			continue
		}
		lo, hi := b.SetOff[i], b.SetOff[i+1]
		if b.Kinds[i] == pir.EvInit {
			vs := b.Sets[lo]
			switch {
			case vs.Name == "":
				s.reject(f, "init without var")
			case s.mon.EventsOn(proc) > 0:
				s.reject(f, fmt.Sprintf("init for process %d after its events", b.Procs[i]))
			case s.registered:
				s.reject(f, "init after watches started evaluating (send inits first)")
			default:
				s.mon.SetInitial(proc, vs.Name, vs.Val)
			}
			continue
		}
		s.ensureWatches()
		// The monitor applies the row in order and keeps no reference.
		if err := s.mon.Apply(proc, b.Kinds[i], b.Msg(i), b.Sets[lo:hi]); err != nil {
			s.reject(f, err.Error())
			continue
		}
		s.events.Add(1)
		s.srv.met.events.Inc()
		applied++
		if d := s.srv.cfg.IngestDelay; d > 0 {
			time.Sleep(d)
		}
		s.checkWatches()
	}
	if applied > 0 {
		s.srv.met.applied.Add(applied)
		// Every event of the unit shares its enqueue-to-applied latency.
		lat := time.Since(f.enq)
		s.latNanos.Add(lat.Nanoseconds() * applied)
		s.srv.met.ingestDur.ObserveN(lat.Seconds(), applied)
	}
	return applied
}

func (s *Session) handleSnapshot(f *inFrame) {
	if s.mon.Bounded() {
		s.reject(f, "snapshot unavailable on a bounded session (event prefix not retained)")
		return
	}
	s.ensureWatches()
	fl, err := ctl.Parse(f.text)
	if err != nil {
		s.reject(f, err.Error())
		return
	}
	res, err := core.Detect(s.mon.Snapshot(), fl)
	if err != nil {
		s.reject(f, err.Error())
		return
	}
	s.srv.met.snapshots.Inc()
	holds := res.Holds
	fr := ServerFrame{
		Type:      FrameSnapshot,
		Session:   s.id,
		ID:        f.id,
		Holds:     &holds,
		Algorithm: res.Algorithm,
		Event:     s.mon.Events(),
		Events:    s.mon.Events(),
	}
	if f.resp != nil {
		f.resp <- fr
		return
	}
	s.emit(fr, false)
}

// publishRetained folds the monitor's current retained-state figure into
// the hb_server_session_retained_events gauge as a delta against the last
// published value, so the gauge sums correctly across sessions. Bounded
// sessions hold it at the slice-cursor size; unbounded sessions grow it
// with the prefix.
func (s *Session) publishRetained() {
	if r := int64(s.mon.Retained()); r != s.retained {
		s.srv.met.retained.Add(r - s.retained)
		s.retained = r
	}
}

// checkWatches emits a verdict frame for every watch that latched since
// the last check. Called after each applied event, so Event on the frame
// is the exact determining prefix: the verdict did not hold after
// Event-1 events and holds after Event. The monitor's latch count says
// whether anything latched at all; only when it moved are the watches
// scanned, in ascending index, which fixes the order (and Idx) of frames
// for watches that latch on the same event.
func (s *Session) checkWatches() {
	s.publishRetained()
	latched := s.mon.Latched()
	if latched == s.latched {
		return
	}
	s.latched = latched
	for i, w := range s.watches {
		if w.done {
			continue
		}
		var cut []int
		conjunct, event := "", s.mon.Events()
		switch {
		case w.ef != nil && w.ef.Fired():
			s.srv.met.efFired.Inc()
			cut = w.ef.Cut()
		case w.ag != nil && w.ag.Violated():
			s.srv.met.agViolated.Inc()
			cut, conjunct = w.ag.Counterexample()
		case w.st != nil && w.st.Fired():
			s.srv.met.stableFired.Inc()
			event = w.st.FiredAt()
		default:
			continue
		}
		w.done = true
		fr := ServerFrame{Type: FrameVerdict, Session: s.id, Watch: i, Op: w.op, Pred: w.pred, Event: event, Cut: cut, Conjunct: conjunct}
		verdictStart := time.Now()
		vs := s.curSpan.StartChild("verdict")
		vs.Set("service", "monitor").Set("watch", i).Set("op", w.op).Set("event", s.mon.Events())
		s.emit(fr, true)
		vs.End()
		s.srv.met.stage(StageVerdict, time.Since(verdictStart))
	}
}

// emit records a latched frame (when record is set) and pushes it to the
// attached transport. Recording happens before the push and resume
// replays the record, so a frame is never lost to a dying connection —
// at worst it is delivered twice, and the client dedupes on Idx. Safe
// from any goroutine; never blocks past Close or a transport detach.
func (s *Session) emit(fr ServerFrame, record bool) {
	s.mu.Lock()
	if record {
		fr.Idx = len(s.frames) + 1
		s.frames = append(s.frames, fr)
	}
	att := s.att
	s.mu.Unlock()
	if att == nil {
		return
	}
	p := new(ServerFrame)
	*p = fr
	// Prefer the buffered send: during the post-Close drain stop is
	// already closed, but the writer is still draining the subscriber, so
	// verdicts for drained events must not be shed while there is room.
	select {
	case att.ch <- p:
	default:
		select {
		case att.ch <- p:
		case <-att.done:
			// Transport died with a backlogged channel; recorded frames
			// reach the client via resume replay or Frames / Goodbye.
		case <-s.stop:
			// Closing with a backlogged subscriber; the frame stays
			// available via Frames / Goodbye.
		}
	}
}
