package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/pir"
)

// Serve accepts TCP ingest connections on ln until the listener is
// closed (Shutdown closes it). Each connection speaks the NDJSON frame
// protocol: a hello frame opens a session (a resume frame reattaches to
// a live one), event frames stream the computation, and verdict frames
// are pushed back as they latch. A connection carries sessions one after
// another: after a session's goodbye it waits for the next handshake.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.draining.Load() {
		s.lnMu.Unlock()
		ln.Close()
		return fmt.Errorf("server: shutting down")
	}
	s.lns = append(s.lns, ln)
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil // orderly shutdown closed the listener
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		// Added under lnMu, where Shutdown sets draining before it waits:
		// a handler is either counted before the wait or never started.
		s.lnMu.Lock()
		if s.draining.Load() {
			s.lnMu.Unlock()
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		s.lnMu.Unlock()
		go s.handleConn(conn)
	}
}

// writeBurst encodes fr (when non-nil) and every frame already queued on
// ch into *buf, up to and including a goodbye, and writes them with one
// deadline and one conn.Write; it reports whether a goodbye was among
// them. Only the connection's writer receives from ch, so the frames
// len(ch) counts are there to take. An error means the peer is gone;
// recorded frames replay on resume.
func writeBurst(conn net.Conn, buf *[]byte, fr *ServerFrame, ch chan *ServerFrame) (bool, error) {
	b := (*buf)[:0]
	bye := fr != nil && fr.Type == FrameGoodbye
	if fr != nil {
		b = AppendFrame(b, fr)
	}
	for n := len(ch); n > 0 && !bye; n-- {
		fr = <-ch
		b = AppendFrame(b, fr)
		bye = fr.Type == FrameGoodbye
	}
	if cap(b) <= maxKeptWriteBuffer {
		*buf = b // a large burst's buffer is left to the GC
	}
	if len(b) == 0 {
		return false, nil
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	_, err := conn.Write(b)
	return bye, err
}

// maxKeptWriteBuffer is the largest buffer a connection's writer keeps
// between bursts.
const maxKeptWriteBuffer = 4 << 10

// writeFrame writes one NDJSON frame, refusing to block forever on a
// stuck peer.
func writeFrame(conn net.Conn, fr ServerFrame) error {
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	_, err := conn.Write(AppendFrame(nil, &fr))
	return err
}

// armReadDeadline bounds the next frame read so a half-open peer that
// went silent cannot park the reader goroutine forever. The effective
// deadline is the shorter of ReadTimeout and IdleTimeout.
func (s *Server) armReadDeadline(conn net.Conn) {
	d := s.cfg.ReadTimeout
	if d < 0 {
		d = 0
	}
	if s.cfg.IdleTimeout > 0 && (d == 0 || s.cfg.IdleTimeout < d) {
		d = s.cfg.IdleTimeout
	}
	if d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
}

// scanEndReason classifies why the frame scanner stopped: clean EOF, an
// expired read deadline, an oversized frame, or another I/O error.
func scanEndReason(err error) string {
	if err == nil {
		return CloseEOF
	}
	if errors.Is(err, ErrFrameTooLong) {
		return CloseTooLong
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return CloseReadTimeout
	}
	return CloseError
}

// tooLongFrame is the explanatory error frame for an oversized frame,
// so clients can distinguish the teardown from network loss.
func tooLongFrame(session string) ServerFrame {
	return ServerFrame{Type: FrameError, Session: session, Code: CodeFrameTooLong,
		Error: fmt.Sprintf("server: frame exceeds %d bytes; close and reconnect with smaller frames", MaxFrameBytes)}
}

// handleConn runs one TCP connection: one session after another, each
// opened by a handshake (hello opens a session, resume reattaches to
// one). A session's goodbye is its last frame on the connection: once
// the goodbye answering a bye is written, the connection waits for the
// next handshake under the same read deadline, and the server writes
// nothing on it until it answers one. Any other end of a session ends
// the connection.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.met.connsActive.Add(1)
	defer s.met.connsActive.Add(-1)
	sc := NewFrameScanner(conn)
	start := time.Now()
	for kept := false; ; kept = true {
		if kept && !s.park(conn) {
			s.met.connClosed(CloseSessionDone)
			return
		}
		s.armReadDeadline(conn)
		ok := sc.Scan()
		if kept {
			s.unpark(conn)
		}
		if !ok {
			if errors.Is(sc.Err(), ErrFrameTooLong) {
				writeFrame(conn, tooLongFrame(""))
			}
			reason := scanEndReason(sc.Err())
			switch {
			case kept && reason == CloseEOF:
				reason = CloseBye // the peer hung up after its last session's bye
			case kept && s.draining.Load():
				reason = CloseSessionDone // Shutdown closed the idle connection
			}
			s.met.connClosed(reason)
			return
		}
		if kept {
			// A kept connection's accept stage runs from the handshake's
			// arrival, not across the idle gap before it.
			start = time.Now()
			s.met.connsReused.Inc()
		}
		if !s.serveSession(conn, sc, start, kept) {
			return
		}
	}
}

// park registers conn as waiting between sessions, where Shutdown closes
// it; false means the server is draining and conn must end now.
func (s *Server) park(conn net.Conn) bool {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.draining.Load() {
		return false
	}
	if s.idle == nil {
		s.idle = make(map[net.Conn]struct{})
	}
	s.idle[conn] = struct{}{}
	return true
}

// unpark takes conn out of the idle set once a frame arrived on it (or
// its read ended).
func (s *Server) unpark(conn net.Conn) {
	s.lnMu.Lock()
	delete(s.idle, conn)
	s.lnMu.Unlock()
}

// serveSession runs one session on conn, opened by the handshake frame sc
// holds: the handshake (hello opens a session, resume reattaches to one),
// then a reader loop ingesting frames and a writer goroutine pushing
// latched frames back. The writer owns all writes after the handshake; it
// exits when it wrote the goodbye, the session finishes or the transport
// detaches, and the subscriber channel is never closed (so a drain-time
// emit cannot panic). It reports whether conn may carry another session:
// the session ended in a bye and its goodbye was written. kept says conn
// already served one, so its first line is no cluster takeover.
//
// When the connection ends, a resumable session detaches — it keeps
// running, frames latch into its record, and a later resume replays
// them — while a plain session closes, exactly as before resumability
// existed.
func (s *Server) serveSession(conn net.Conn, sc *FrameScanner, start time.Time, kept bool) bool {
	if sc.Binary() {
		// The handshake (hello/resume) is always NDJSON; binary frames
		// are only legal after negotiation.
		s.met.protoErrors.Inc()
		s.met.connClosed(CloseProtoError)
		writeFrame(conn, ServerFrame{Type: FrameError,
			Error: "server: binary frame before handshake"})
		return false
	}
	// Cluster replication rides the same listener: the takeover hook peeks
	// at a connection's first line and, if it is a replication handshake,
	// runs the whole replication dialog on this goroutine (handleConn's
	// deferred Close still tears the conn down when it returns).
	if h := s.cfg.Cluster; !kept && h != nil && h.Takeover != nil && h.Takeover(sc.Bytes(), conn) {
		s.met.connClosed(CloseTakeover)
		return false
	}
	first, err := DecodeClientFrame(sc.Bytes())
	if err != nil {
		s.met.protoErrors.Inc()
		s.met.connClosed(CloseProtoError)
		writeFrame(conn, ServerFrame{Type: FrameError, Error: err.Error()})
		return false
	}

	att := newAttachment()
	var sess *Session
	switch first.Type {
	case FrameHello:
		if err := ValidateHello(first); err != nil {
			s.met.protoErrors.Inc()
			s.met.connClosed(CloseProtoError)
			writeFrame(conn, ServerFrame{Type: FrameError, Error: err.Error()})
			return false
		}
		cfg := SessionConfig{Processes: first.Processes, Watches: first.Watches, Resumable: first.Resumable, Bounded: first.Bounded, Durability: first.Durability}
		if first.Session != "" {
			// A keyed hello pins the session id for cluster placement.
			h := s.cfg.Cluster
			switch {
			case h == nil:
				s.met.protoErrors.Inc()
				s.met.connClosed(CloseProtoError)
				writeFrame(conn, ServerFrame{Type: FrameError,
					Error: "server: session key requires cluster mode"})
				return false
			case !first.Resumable:
				s.met.protoErrors.Inc()
				s.met.connClosed(CloseProtoError)
				writeFrame(conn, ServerFrame{Type: FrameError,
					Error: "server: keyed sessions must be resumable (replication needs sequenced frames)"})
				return false
			}
			if h.Placement != nil {
				if owner, ok := h.Placement(first.Session); !ok {
					s.met.connClosed(CloseError)
					writeFrame(conn, ServerFrame{Type: FrameError, Code: CodeNotOwner, Owner: owner,
						Error: fmt.Sprintf("server: session key %q is not placed here; dial %s", first.Session, owner)})
					return false
				}
			}
			cfg.ID = first.Session
		}
		sess, err = s.Open(cfg)
		if err != nil {
			s.met.protoErrors.Inc()
			s.met.connClosed(CloseProtoError)
			fr := ServerFrame{Type: FrameError, Error: err.Error()}
			var rej *RejectError
			if errors.As(err, &rej) {
				// key-in-use: tell the client machine-readably so it can
				// resume the orphan its earlier (welcome-lost) hello opened.
				fr.Code = rej.Code
				fr.Owner = rej.Owner
			}
			writeFrame(conn, fr)
			return false
		}
		if cfg.ID != "" {
			if h := s.cfg.Cluster; h != nil && h.OnOpen != nil {
				h.OnOpen(sess, cfg)
			}
		}
		// Welcome goes through the subscriber so the writer stays the
		// only writer; attach afterwards so no verdict can overtake it.
		// Watches are registered lazily at the first event, and only this
		// connection ingests, so nothing latches in between.
		w := sess.Welcome()
		w.Encoding = first.Encoding
		att.ch <- &w
		sess.attach(att)
	case FrameResume:
		resumed, welcome, replay, code, err := s.resume(first, att)
		if err != nil {
			s.met.connClosed(CloseError)
			fr := ServerFrame{Type: FrameError, Code: code, Error: err.Error()}
			var rej *RejectError
			if errors.As(err, &rej) {
				fr.Owner = rej.Owner
			}
			writeFrame(conn, fr)
			return false
		}
		welcome.Encoding = first.Encoding
		if resumed == nil {
			// Terminal replay: the session already finished and its key
			// is retired with its record. Serve it and the goodbye, then
			// close: the client's resume may be followed by frames of the
			// finished session, which must not read as a next handshake.
			if writeFrame(conn, welcome) == nil {
				for _, fr := range replay {
					if writeFrame(conn, fr) != nil {
						break
					}
				}
			}
			s.met.connClosed(CloseSessionDone)
			return false
		}
		sess = resumed
		// The writer does not exist yet, so the handshake writes happen
		// inline: welcome (carrying the accept high-water seq), then the
		// recorded-frame replay. Frames latched after the attach go to
		// att.ch and are pushed once the writer starts — tryResume
		// snapshots the record atomically with the attach, so the replay
		// and the live stream neither overlap nor leave a hole.
		if writeFrame(conn, welcome) != nil {
			sess.detach(att)
			s.met.connClosed(CloseError)
			return false
		}
		for _, fr := range replay {
			if writeFrame(conn, fr) != nil {
				sess.detach(att)
				s.met.connClosed(CloseError)
				return false
			}
		}
	default:
		s.met.protoErrors.Inc()
		s.met.connClosed(CloseProtoError)
		writeFrame(conn, ServerFrame{Type: FrameError,
			Error: fmt.Sprintf("server: first frame must be %q or %q, got %q", FrameHello, FrameResume, first.Type)})
		return false
	}

	// The handshake is complete and the session attached: that interval
	// is the accept stage. Its span parents under the session root so the
	// trace shows which connection fed which session.
	s.met.stage(StageAccept, time.Since(start))
	if s.cfg.Tracer != nil {
		as := s.cfg.Tracer.StartAt("accept", sess.spanCtx(), start)
		as.Set("service", "transport").Set("session", sess.id).Set("handshake", string(first.Type))
		as.End()
	}

	writerDone := make(chan struct{})
	var goodbyeAt time.Time
	closed := false
	go func() {
		defer close(writerDone)
		goodbyeAt = pushFrames(conn, att, sess.Done())
		if att.byeAt.Load() == 0 {
			// The close unblocks a reader parked in Scan when the session
			// ends server-side (shutdown, idle timeout). After a bye the
			// reader is not parked, and the connection is left to carry
			// the next session.
			conn.Close()
			closed = true
		}
	}()

	reason := s.readFrames(conn, sc, sess, att, first.Encoding == EncodingBinary)
	// Reader finished: EOF, read error/timeout, seq gap, bye, or session
	// end. Counted before the teardown below closes the conn, so a client
	// that sees the close finds it counted; a bye may leave it open.
	if reason != CloseBye {
		s.met.connClosed(reason)
	}
	if sess.Resumable() && reason != CloseBye {
		// The session survives the connection: detach and wait for a
		// resume. The idle janitor reclaims it if the client never
		// returns; Shutdown closes it with everything else.
		sess.detach(att)
	} else {
		sess.Close("connection closed")
	}
	att.close()
	<-writerDone
	if bye := att.byeAt.Load(); bye != 0 && !goodbyeAt.IsZero() {
		s.met.stage(StageClose, goodbyeAt.Sub(time.Unix(0, bye)))
	}
	if reason != CloseBye {
		return false
	}
	if !goodbyeAt.IsZero() && !closed {
		return true
	}
	s.met.connClosed(CloseBye)
	return false
}

// pushFrames is a session's writer: it writes the frames queued on
// att.ch until it has written the goodbye, the transport detaches or the
// session ends, and returns when it wrote the goodbye (zero if it did
// not). The goodbye is the last frame it writes; a frame queued behind it
// (a late ack) is dropped.
func pushFrames(conn net.Conn, att *attachment, done <-chan struct{}) time.Time {
	var buf []byte
	for {
		var fr *ServerFrame
		select {
		case fr = <-att.ch:
		case <-att.done:
		case <-done:
		}
		// On a detach or the session's end, flush what is already queued
		// (the goodbye may be in there, and select may have picked this
		// case over att.ch), then stop. Recorded frames that fail to
		// flush replay on resume.
		bye, err := writeBurst(conn, &buf, fr, att.ch)
		switch {
		case bye && err == nil:
			return time.Now()
		case err != nil || fr == nil:
			return time.Time{}
		}
	}
}

// ingestFrame reports whether a frame type carries sequenced session
// input (and so must pass dup/gap triage on resumable sessions). The
// bye is triaged too: without a seq it could bypass the gap check and
// close the session while the final events are still lost in flight.
func ingestFrame(t string) bool {
	return t == FrameInit || t == FrameEvent || t == FrameBatch || t == FrameBye
}

// readFrames is handleConn's reader loop; it returns the typed close
// reason. For resumable sessions it triages sequence numbers before
// ingest: duplicates are idempotently dropped (at-least-once delivery
// becomes exactly-once ingestion) and a gap — frames lost in flight —
// kills the connection so the client reconnects and replays from the
// last ack. Unsequenced (seq 0) ingest frames are rejected outright on
// resumable sessions: they would skip that triage, so an at-least-once
// redelivery would be ingested twice.
//
// binEnc is the negotiated encoding: when true the session may also send
// binary batch frames, decoded straight into pir.Batch with a
// session-scoped var table (each session on a connection, and each
// reconnect, starts a fresh table on both sides, so interning needs no
// handshake).
//
// Every init/event line is a row of a batch unit, and ingest pays per
// read, not per line: while whole init/event lines with the same id are
// already buffered behind one, the reader decodes them too (no socket
// read, so no deadline, is involved), and ingestRows enqueues their rows
// as one batch. A line that arrives alone is a gather of one. The line
// that ends a gather — any other frame, a malformed line, or another id —
// is decoded inside the gather's window and processed on the next turn.
func (s *Server) readFrames(conn net.Conn, sc *FrameScanner, sess *Session, att *attachment, binEnc bool) string {
	var (
		vt   pir.VarTable
		rows []ClientFrame // the lines of one gather
		// next is the line that ended a gather (nextErr its decode error),
		// processed on the following turn of the loop.
		next    ClientFrame
		nextErr error
		carried bool
	)
	for carried || sc.Scan() {
		var f ClientFrame
		var err error
		read := !carried // decoded on this turn, not inside the last gather's window
		decStart := time.Now()
		if carried {
			f, err, carried = next, nextErr, false
		} else {
			s.armReadDeadline(conn)
			if sc.Binary() {
				f, err = s.decodeBinaryFrame(sc, &vt, binEnc)
			} else {
				f, err = DecodeClientFrame(sc.Bytes())
			}
		}
		rows = rows[:0]
		if err == nil && rowFrame(&f) {
			rows = append(rows, f)
			for sc.LineBuffered() && sc.Scan() {
				if next, nextErr = DecodeClientFrame(sc.Bytes()); nextErr != nil || !rowFrame(&next) || next.ID != f.ID {
					carried = true
					break
				}
				rows = append(rows, next)
			}
		}
		if err == nil && read {
			s.met.stage(StageDecode, time.Since(decStart))
			if s.cfg.Tracer != nil {
				typ := f.Type
				if len(rows) > 1 {
					typ = FrameBatch
				}
				ds := s.cfg.Tracer.StartAt("decode", sess.spanCtx(), decStart)
				ds.Set("service", "transport").Set("type", typ)
				ds.End()
			}
		}
		if len(rows) > 0 {
			if reason := s.ingestRows(sess, rows); reason != "" {
				return reason
			}
			if sessionDone(sess) {
				return CloseSessionDone
			}
			continue
		}
		if err != nil {
			if sc.Binary() {
				if sess.Resumable() && f.Seq > 0 && f.Seq != sess.enqSeq.Load()+1 {
					// Batch bodies reference the connection's interning
					// table, so the frame after a silently dropped one can
					// fail to decode — a dangling name reference. The gap,
					// not the body, is the real error: report it as such
					// (a coded transport signal the client's reconnect
					// machinery consumes silently), exactly as if the body
					// had decoded and the triage below had caught it.
					return s.seqFailed(sess, &f, seqGap)
				}
				sess.emit(ServerFrame{Type: FrameError, Session: sess.id, Error: err.Error()}, false)
			}
			s.met.protoErrors.Inc()
			// A malformed line means the stream is desynchronized; no later
			// frame can be trusted. A resumable session survives — the
			// client will resume and replay from the last ack — but the
			// connection cannot.
			if !sess.Resumable() {
				sess.Close(err.Error())
			}
			return CloseProtoError
		}
		switch v := s.triage(sess, &f); v {
		case seqDup:
			f.Batch.Recycle()
			continue // already accepted; drop idempotently
		case seqGap, seqBad:
			f.Batch.Recycle()
			return s.seqFailed(sess, &f, v)
		}
		switch f.Type {
		case FrameBye:
			// Orderly close: the loop drains and the writer writes the
			// goodbye. Wait here so the close reason is attributed to the
			// bye; the reader reads nothing more of this session, so the
			// connection can carry the next one.
			att.byeAt.Store(time.Now().UnixNano())
			sess.Close("bye")
			<-sess.Done()
			return CloseBye
		case FrameBatch:
			s.met.batches.Inc()
			fallthrough
		case FrameSnapshot:
			// A snapshot's answer is emitted to the subscriber by the
			// monitor loop, preserving stream order.
			enqueued(sess, sess.Ingest(f))
		case FrameHello, FrameResume:
			// A mid-stream handshake frame desynchronizes the dialog. For
			// a resumable session this is connection-fatal only (a flaky
			// network can duplicate the resume line itself); a plain
			// session dies with its connection anyway.
			s.met.protoErrors.Inc()
			if !sess.Resumable() {
				sess.Close("duplicate handshake frame")
			}
			return CloseProtoError
		default:
			s.met.protoErrors.Inc()
			sess.Close(fmt.Sprintf("unknown frame type %q", f.Type))
		}
		if sessionDone(sess) {
			return CloseSessionDone
		}
	}
	if errors.Is(sc.Err(), ErrFrameTooLong) {
		// An oversized frame (either encoding) used to die as a bare
		// scanner error, indistinguishable from network loss; tell the
		// client what happened before the connection goes.
		s.met.protoErrors.Inc()
		sess.emit(tooLongFrame(sess.id), false)
	}
	return scanEndReason(sc.Err())
}

// rowFrame reports whether f is an init or event line: one row of a batch.
func rowFrame(f *ClientFrame) bool {
	return f.Type == FrameInit || f.Type == FrameEvent
}

// ingestRows triages the lines of one gather in order and enqueues the
// rows of the accepted ones as a batch unit that carries the last
// accepted seq and the lines' id. A duplicate is skipped; a bad or gapped
// seq first enqueues what was gathered before it, then ends the
// connection. A line AppendRow refuses is queued as its rejection, with
// its seq and id, between the rows before and after it. It returns the
// close reason when the connection must end, else "".
func (s *Server) ingestRows(sess *Session, rows []ClientFrame) string {
	u := inFrame{id: rows[0].ID}
	flush := func() {
		if u.batch != nil && u.batch.Len() > 0 {
			u.enq = time.Now()
			enqueued(sess, sess.enqueue(u))
			u.batch = nil
		}
	}
	defer func() { u.batch.Recycle() }() // left empty: every line after the last flush was refused
	for i := range rows {
		f := &rows[i]
		switch v := s.triage(sess, f); v {
		case seqDup:
			continue
		case seqGap, seqBad:
			flush()
			return s.seqFailed(sess, f, v)
		}
		if u.batch == nil {
			u.batch = pir.GetBatch()
		}
		if why := AppendRow(u.batch, f, sess.n); why != "" {
			flush()
			enqueued(sess, sess.enqueue(inFrame{kind: unitReject, text: why, seq: f.Seq, id: f.ID, enq: time.Now()}))
			continue
		}
		u.seq = f.Seq
	}
	flush()
	return ""
}

// triage is the reader's seq check of one frame: on a resumable session
// every ingest frame must carry the next seq. A freshly accepted frame is
// offered to cluster replication before ingest; the hook runs on this
// goroutine, so a slow replica applies backpressure to this client, not
// to others.
func (s *Server) triage(sess *Session, f *ClientFrame) seqVerdict {
	if !sess.Resumable() || !ingestFrame(f.Type) {
		return seqAccept
	}
	if f.Seq <= 0 {
		// An unsequenced (or negative-seq) ingest frame would skip the
		// dup/gap triage, so a redelivery of it would be ingested twice.
		return seqBad
	}
	v := sess.acceptSeq(f.Seq)
	if h := s.cfg.Cluster; v == seqAccept && h != nil && h.OnAccept != nil {
		h.OnAccept(sess, *f)
	}
	return v
}

// seqFailed reports a bad or gapped seq to the client and returns the
// close reason.
func (s *Server) seqFailed(sess *Session, f *ClientFrame, v seqVerdict) string {
	s.met.protoErrors.Inc()
	if v == seqBad {
		sess.emit(ServerFrame{Type: FrameError, Session: sess.id, Code: CodeBadSeq,
			Error: fmt.Sprintf("server: %s frame with seq %d on a resumable session (sequenced frames required)", f.Type, f.Seq)}, false)
		return CloseProtoError
	}
	sess.emit(ServerFrame{Type: FrameError, Session: sess.id, Code: CodeSeqGap,
		Error: fmt.Sprintf("seq gap: got %d, expected %d — reconnect and resume", f.Seq, sess.enqSeq.Load()+1)}, false)
	return CloseSeqGap
}

// enqueued applies the reader's policy to an ingest result: a drop is
// counted and the session goes on, any other failure closes it.
func enqueued(sess *Session, err error) {
	if err != nil && err != ErrDropped {
		sess.Close("")
	}
}

// sessionDone reports whether the session has finished, so the reader
// stops.
func sessionDone(sess *Session) bool {
	select {
	case <-sess.Done():
		return true
	default:
		return false
	}
}

// decodeBinaryFrame decodes one binary frame into a ClientFrame. Only
// batch frames exist today, and only on connections that negotiated
// the binary encoding at hello/resume time. The returned frame carries
// a pooled batch; every sink (triage drop, monitor apply) recycles it.
func (s *Server) decodeBinaryFrame(sc *FrameScanner, vt *pir.VarTable, binEnc bool) (ClientFrame, error) {
	if !binEnc {
		return ClientFrame{}, fmt.Errorf("server: binary frame on a connection that negotiated %q", EncodingNDJSON)
	}
	if t := sc.BinaryType(); t != BinBatch {
		return ClientFrame{}, fmt.Errorf("server: unknown binary frame type 0x%02x", t)
	}
	// Decode fully before the caller triages the seq: a malformed body
	// then never advances the accept watermark (the client will resume
	// and redeliver), and decoding a duplicated frame is idempotent on
	// the var table because declarations carry explicit indexes. The
	// seq is returned even when the body fails — the caller uses it to
	// tell a dangling-reference decode failure after a dropped frame
	// (a seq gap) from genuine corruption.
	seq, body, err := pir.BatchSeq(sc.Bytes())
	if err != nil {
		return ClientFrame{}, err
	}
	b := pir.GetBatch()
	if err := b.DecodeBody(body, vt); err != nil {
		b.Recycle()
		return ClientFrame{Seq: seq}, err
	}
	return ClientFrame{Type: FrameBatch, Seq: seq, Batch: b}, nil
}
