package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// openAll opens k default sessions at once and returns those admitted.
// Every rejection must be the session limit.
func openAll(t *testing.T, s *Server, k int) []*Session {
	t.Helper()
	var mu sync.Mutex
	var admitted []*Session
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sess, err := s.Open(SessionConfig{Processes: 2, Watches: []Watch{{Op: "EF", Pred: "x@P1 == 1"}}})
			if err != nil {
				if !strings.Contains(err.Error(), "session limit") {
					t.Errorf("open rejected with %v, want the session limit", err)
				}
				return
			}
			mu.Lock()
			admitted = append(admitted, sess)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	return admitted
}

// TestSessionTableAdmitsExactlyMax: with MaxSessions = N, 4N concurrent
// opens admit exactly N, one close admits exactly one more, and the
// rejected opens leave no session span and no gauge change.
func TestSessionTableAdmitsExactlyMax(t *testing.T) {
	const n = 8
	ring := obs.NewSpanRing(64)
	s := New(Config{Registry: obs.NewRegistry(), MaxSessions: n, Tracer: obs.NewTracer(nil).Mirror(ring)})
	defer s.Shutdown(context.Background())

	first := openAll(t, s, 4*n)
	if len(first) != n || s.SessionCount() != n {
		t.Fatalf("4N opens admitted %d (table holds %d), want %d", len(first), s.SessionCount(), n)
	}
	if g := s.met.sessionsActive.Value(); g != n {
		t.Fatalf("active-sessions gauge = %d, want %d", g, n)
	}
	if _, total := ring.Snapshot(); total != 0 {
		t.Fatalf("%d spans recorded before any session ended, want 0", total)
	}

	first[0].Close("bye")
	<-first[0].Done()
	second := openAll(t, s, 4*n)
	if len(second) != 1 || s.SessionCount() != n {
		t.Fatalf("after one close, 4N opens admitted %d (table holds %d), want 1 (%d)", len(second), s.SessionCount(), n)
	}
	if g := s.met.sessionsActive.Value(); g != n {
		t.Fatalf("active-sessions gauge = %d, want %d", g, n)
	}
	if opened := s.met.sessionsTotal.Value(); opened != n+1 {
		t.Fatalf("sessions opened = %d, want %d", opened, n+1)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	spans, _ := ring.Snapshot()
	sessions := 0
	for _, sp := range spans {
		if sp.Span == "session" {
			sessions++
		}
	}
	if sessions != n+1 {
		t.Fatalf("%d session spans recorded, want one per admitted session (%d)", sessions, n+1)
	}
}

// TestSessionTableRetiredKeyBound: retired keys — terminal replays of
// finished resumable sessions and supersession redirects alike — never
// exceed MaxSessions, and the oldest leaves first; re-retiring a key
// makes it the newest.
func TestSessionTableRetiredKeyBound(t *testing.T) {
	const n = 4
	s := New(Config{Registry: obs.NewRegistry(), MaxSessions: n})
	defer s.Shutdown(context.Background())

	// probe resumes key and says what the table holds for it.
	probe := func(key string) string {
		_, _, _, code, err := s.resume(ClientFrame{Type: FrameResume, Session: key}, newAttachment())
		switch {
		case err == nil:
			return "replay"
		case code == CodeStaleEpoch:
			return "redirect"
		case code == CodeUnknownSession:
			return "unknown"
		}
		t.Fatalf("resume %s: %s %v", key, code, err)
		return ""
	}
	var keys, kinds []string
	retire := func(key string) {
		if len(keys)%2 == 0 {
			sess, err := s.Open(SessionConfig{ID: key, Processes: 1, Resumable: true})
			if err != nil {
				t.Fatal(err)
			}
			sess.Close("bye")
			<-sess.Done()
			kinds = append(kinds, "replay")
		} else {
			s.Supersede(key, "node-b", "test")
			kinds = append(kinds, "redirect")
		}
		keys = append(keys, key)
	}
	// check requires exactly the newest n keys to be retired.
	check := func() {
		t.Helper()
		for i, key := range keys {
			want := "unknown"
			if i >= len(keys)-n {
				want = kinds[i]
			}
			if got := probe(key); got != want {
				t.Fatalf("after retiring %v: %s holds %s, want %s", keys, key, got, want)
			}
		}
	}
	for i := 0; i < 3*n; i++ {
		retire(fmt.Sprintf("key-%d", i))
		check()
	}
	// Superseding the oldest retired key again makes it the newest: the
	// next retire evicts the key after it instead.
	oldest, next := keys[len(keys)-n], keys[len(keys)-n+1]
	s.Supersede(oldest, "node-b", "test")
	retire("key-last")
	if got := probe(oldest); got != "redirect" {
		t.Fatalf("re-superseded %s holds %s, want redirect", oldest, got)
	}
	if got := probe(next); got != "unknown" {
		t.Fatalf("%s holds %s after the re-supersede and one more retire, want unknown", next, got)
	}
}
