package server_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// rawSession is a hand-driven NDJSON connection for exercising the
// resume protocol below the client library's recovery machinery.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{t: t, conn: conn, sc: bufio.NewScanner(conn)}
}

func (r *rawSession) send(format string, args ...any) {
	r.t.Helper()
	if _, err := fmt.Fprintf(r.conn, format+"\n", args...); err != nil {
		r.t.Fatalf("send: %v", err)
	}
}

// recv reads the next frame, failing the test on EOF.
func (r *rawSession) recv() server.ServerFrame {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !r.sc.Scan() {
		r.t.Fatalf("connection ended: %v", r.sc.Err())
	}
	var fr server.ServerFrame
	if err := decodeFrame(r.sc.Bytes(), &fr); err != nil {
		r.t.Fatalf("decode %q: %v", r.sc.Text(), err)
	}
	return fr
}

// recvType reads frames until one of the given type arrives (skipping
// acks and verdicts a test does not care about).
func (r *rawSession) recvType(typ string) server.ServerFrame {
	r.t.Helper()
	for i := 0; i < 32; i++ {
		fr := r.recv()
		if fr.Type == typ {
			return fr
		}
	}
	r.t.Fatalf("no %q frame in 32 frames", typ)
	return server.ServerFrame{}
}

// closed reports whether the server closed the connection (EOF or
// reset) within the deadline.
func (r *rawSession) closed() bool {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for r.sc.Scan() {
	}
	var ne net.Error
	return !errors.As(r.sc.Err(), &ne) || !ne.Timeout() // EOF or reset, not the deadline
}

func decodeFrame(b []byte, fr *server.ServerFrame) error {
	return json.Unmarshal(b, fr)
}

// openResumable performs the resumable hello handshake and returns the
// session id.
func (r *rawSession) openResumable(procs int) string {
	r.t.Helper()
	r.send(`{"type":"hello","processes":%d,"resumable":true}`, procs)
	fr := r.recvType(server.FrameWelcome)
	if fr.Session == "" {
		r.t.Fatal("welcome without session id")
	}
	return fr.Session
}

// event streams one sequenced internal event.
func (r *rawSession) event(proc int, seq int64) {
	r.send(`{"type":"event","proc":%d,"kind":"internal","seq":%d}`, proc, seq)
}

// resumeFrom issues a resume on a fresh connection, retrying while the
// server still considers the previous transport attached — busy is the
// documented retryable answer until the dead conn's reader unwinds.
func resumeFrom(t *testing.T, addr, id string, seq int64) (*rawSession, server.ServerFrame) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := dialRaw(t, addr)
		r.send(`{"type":"resume","session":%q,"seq":%d}`, id, seq)
		fr := r.recv()
		if fr.Type != server.FrameError || fr.Code != server.CodeBusy {
			return r, fr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still busy 5s after the previous connection closed")
		}
		r.conn.Close()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResumeUnknownSession(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	r := dialRaw(t, addr)
	r.send(`{"type":"resume","session":"s-9999","seq":0}`)
	fr := r.recvType(server.FrameError)
	if fr.Code != server.CodeUnknownSession {
		t.Fatalf("code = %q, want %q", fr.Code, server.CodeUnknownSession)
	}
}

func TestResumeNotResumable(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	a := dialRaw(t, addr)
	a.send(`{"type":"hello","processes":1}`)
	id := a.recvType(server.FrameWelcome).Session

	b := dialRaw(t, addr)
	b.send(`{"type":"resume","session":%q,"seq":0}`, id)
	fr := b.recvType(server.FrameError)
	if fr.Code != server.CodeNotResumable {
		t.Fatalf("code = %q, want %q", fr.Code, server.CodeNotResumable)
	}
}

func TestResumeBadSeq(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	a := dialRaw(t, addr)
	id := a.openResumable(1)
	a.event(1, 1)
	a.conn.Close()

	for _, seq := range []int64{-1, 99} { // negative fails validation; 99 is ahead of anything accepted
		_, fr := resumeFrom(t, addr, id, seq)
		if fr.Code != server.CodeBadSeq {
			t.Fatalf("resume seq %d: code = %q, want %q", seq, fr.Code, server.CodeBadSeq)
		}
	}
}

// TestResumeStaleSeq: a client that fell further behind than the
// retention window cannot resume — the journal no longer covers the
// frames it would need acknowledged.
func TestResumeStaleSeq(t *testing.T) {
	_, addr := startServer(t, server.Config{RetentionWindow: 4, AckEvery: 2})
	a := dialRaw(t, addr)
	id := a.openResumable(1)
	for seq := int64(1); seq <= 8; seq++ {
		a.event(1, seq)
	}
	a.recvType(server.FrameAck) // server caught up at least this far
	a.conn.Close()

	_, fr := resumeFrom(t, addr, id, 0)
	if fr.Code != server.CodeStaleSeq {
		t.Fatalf("code = %q, want %q", fr.Code, server.CodeStaleSeq)
	}

	// Within the window the same session resumes fine.
	_, w := resumeFrom(t, addr, id, 8)
	if w.Type != server.FrameWelcome || !w.Resumed || w.Seq != 8 {
		t.Fatalf("welcome = %+v, want resumed at seq 8", w)
	}
}

// TestResumeAfterExpiry: once the idle janitor reclaims a session and
// its morgue entry expires, a resume is rejected as unknown.
func TestResumeAfterExpiry(t *testing.T) {
	_, addr := startServer(t, server.Config{IdleTimeout: 50 * time.Millisecond})
	a := dialRaw(t, addr)
	id := a.openResumable(1)
	a.event(1, 1)
	a.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(100 * time.Millisecond)
		b := dialRaw(t, addr)
		b.send(`{"type":"resume","session":%q,"seq":1}`, id)
		// Right after the janitor reclaims the session, a resume briefly
		// gets the morgue's terminal replay (a welcome); once that entry
		// expires too, the session is truly unknown.
		fr := b.recv()
		if fr.Type == server.FrameError && fr.Code == server.CodeUnknownSession {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("resume long after expiry still answered %+v", fr)
		}
	}
}

// TestDuplicateEventFramesIdempotent: redelivered sequenced frames are
// dropped without re-applying — at-least-once delivery, exactly-once
// ingestion.
func TestDuplicateEventFramesIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, server.Config{AckEvery: 1, Registry: reg})
	a := dialRaw(t, addr)
	a.openResumable(1)
	a.event(1, 1)
	a.event(1, 1) // duplicate
	a.event(1, 2)
	a.event(1, 1) // stale redelivery, long since accepted
	a.event(1, 3)
	a.send(`{"type":"bye","seq":4}`)
	gb := a.recvType(server.FrameGoodbye)
	if gb.Events != 3 {
		t.Errorf("goodbye says %d events, want 3 (duplicates re-applied?)", gb.Events)
	}
	if d := reg.Counter("hb_server_events_duplicate_total", "").Value(); d != 2 {
		t.Errorf("duplicate_total = %d, want 2", d)
	}
	if j := reg.Counter("hb_server_events_journaled_total", "").Value(); j != 3 {
		t.Errorf("journaled_total = %d, want 3", j)
	}
}

// TestSeqGapKillsConnectionNotSession: a gap means frames were lost in
// flight; the server reports it, drops the connection, and the session
// survives for a resume that replays the missing range.
func TestSeqGapKillsConnectionNotSession(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	a := dialRaw(t, addr)
	id := a.openResumable(1)
	a.event(1, 1)
	a.event(1, 5) // seqs 2..4 lost
	fr := a.recvType(server.FrameError)
	if fr.Code != server.CodeSeqGap {
		t.Fatalf("code = %q, want %q", fr.Code, server.CodeSeqGap)
	}
	if !a.closed() {
		t.Fatal("connection survived a sequence gap")
	}

	// The session is still live: resume from the last accepted seq and
	// deliver the lost range.
	b, w := resumeFrom(t, addr, id, 1)
	if w.Type != server.FrameWelcome || !w.Resumed || w.Seq != 1 {
		t.Fatalf("welcome = %+v, want resumed at seq 1", w)
	}
	for seq := int64(2); seq <= 5; seq++ {
		b.event(1, seq)
	}
	b.send(`{"type":"bye","seq":6}`)
	gb := b.recvType(server.FrameGoodbye)
	if gb.Events != 5 {
		t.Errorf("goodbye says %d events, want 5", gb.Events)
	}
}

// TestConcurrentResumeRejected: while one transport is attached, a
// second resume is refused with the retryable busy code — two clients
// must never ingest interleaved.
func TestConcurrentResumeRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	a := dialRaw(t, addr)
	id := a.openResumable(1)
	a.event(1, 1)

	b := dialRaw(t, addr)
	b.send(`{"type":"resume","session":%q,"seq":1}`, id)
	fr := b.recvType(server.FrameError)
	if fr.Code != server.CodeBusy {
		t.Fatalf("code = %q, want %q (retryable)", fr.Code, server.CodeBusy)
	}

	// Once the first transport is gone the successor takes over.
	a.conn.Close()
	_, w := resumeFrom(t, addr, id, 1)
	if w.Type != server.FrameWelcome || !w.Resumed || w.Seq != 1 {
		t.Fatalf("welcome = %+v, want resumed at seq 1", w)
	}
}

// TestMorgueTerminalReplay: a session that finished while its client
// was disconnected still serves, exactly once, its recorded frames and
// goodbye via resume — the bye → goodbye window is loss-proof.
func TestMorgueTerminalReplay(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	a := dialRaw(t, addr)
	a.send(`{"type":"hello","processes":1,"resumable":true,` +
		`"watches":[{"op":"EF","pred":"conj(x@P1 == 1)"}]}`)
	id := a.recvType(server.FrameWelcome).Session
	a.send(`{"type":"event","proc":1,"kind":"internal","sets":{"x":1},"seq":1}`)
	a.send(`{"type":"bye","seq":2}`)
	a.recvType(server.FrameGoodbye)
	a.conn.Close()

	// The goodbye (and the verdict before it) could have been lost with
	// the connection; a late resume replays the terminal record.
	b := dialRaw(t, addr)
	b.send(`{"type":"resume","session":%q,"seq":2}`, id)
	w := b.recvType(server.FrameWelcome)
	if !w.Resumed || w.Seq != 2 {
		t.Fatalf("welcome = %+v, want resumed at seq 2", w)
	}
	sawVerdict := false
	for {
		fr := b.recv()
		if fr.Type == server.FrameVerdict && fr.Op == "EF" {
			sawVerdict = true
		}
		if fr.Type == server.FrameGoodbye {
			if fr.Events != 1 {
				t.Errorf("replayed goodbye says %d events, want 1", fr.Events)
			}
			break
		}
	}
	if !sawVerdict {
		t.Error("terminal replay did not include the latched EF verdict")
	}
	if !b.closed() {
		t.Error("connection stayed open after terminal replay")
	}
}
