package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func startHTTP(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := server.New(cfg)
	mux := http.NewServeMux()
	server.RegisterHTTP(mux, srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// do runs one request and decodes the JSON body into a ServerFrame.
func do(t *testing.T, method, url, body string, wantStatus int) server.ServerFrame {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, data)
	}
	var fr server.ServerFrame
	if len(data) > 0 {
		if err := json.Unmarshal(data, &fr); err != nil {
			t.Fatalf("%s %s: bad body %q: %v", method, url, data, err)
		}
	}
	return fr
}

// TestHTTPSessionLifecycle walks the whole HTTP API: open, stream a
// batch, observe the pushed verdict via the pull endpoint, snapshot,
// close.
func TestHTTPSessionLifecycle(t *testing.T) {
	_, ts := startHTTP(t, server.Config{})

	welcome := do(t, "POST", ts.URL+"/api/sessions",
		`{"type":"hello","processes":3,"watches":[{"op":"EF","pred":"`+efPred+`"}]}`,
		http.StatusCreated)
	if welcome.Type != server.FrameWelcome || welcome.Session == "" {
		t.Fatalf("welcome = %+v", welcome)
	}
	base := ts.URL + "/api/sessions/" + welcome.Session

	// Batch-ingest the scripted computation as NDJSON.
	var b strings.Builder
	for p := 1; p <= 3; p++ {
		b.WriteString(`{"type":"init","proc":` + itoa(p) + `,"var":"x","value":0}` + "\n")
	}
	b.WriteString(`{"type":"event","proc":1,"sets":{"x":1}}` + "\n")
	b.WriteString(`{"type":"event","proc":1,"kind":"send","msg":1}` + "\n")
	b.WriteString(`{"type":"event","proc":2,"kind":"receive","msg":1,"sets":{"x":1}}` + "\n")
	b.WriteString(`{"type":"event","proc":2,"kind":"send","msg":2}` + "\n")
	b.WriteString(`{"type":"event","proc":3,"kind":"receive","msg":2,"sets":{"x":1}}` + "\n")
	ack := do(t, "POST", base+"/events", b.String(), http.StatusOK)
	if ack.Type != server.FrameAck || ack.Events != 5 || ack.Dropped != 0 {
		t.Fatalf("ack = %+v, want 5 events", ack)
	}

	status := do(t, "GET", base, "", http.StatusOK)
	if status.Events != 5 || status.Processes != 3 {
		t.Fatalf("status = %+v", status)
	}

	// The EF watch fired at event 5; the pull endpoint serves it.
	resp, err := http.Get(base + "/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var verdict server.ServerFrame
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(body)), "\n", 2)[0]), &verdict); err != nil {
		t.Fatalf("verdicts body %q: %v", body, err)
	}
	if verdict.Type != server.FrameVerdict || verdict.Op != "EF" || verdict.Event != 5 {
		t.Fatalf("verdict = %+v, want EF at event 5", verdict)
	}

	snap := do(t, "POST", base+"/snapshot",
		`{"type":"snapshot","formula":"EF(`+efPred+`)"}`, http.StatusOK)
	if snap.Holds == nil || !*snap.Holds || snap.Event != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}

	gb := do(t, "DELETE", base, "", http.StatusOK)
	if gb.Type != server.FrameGoodbye || gb.Events != 5 {
		t.Fatalf("goodbye = %+v", gb)
	}
	do(t, "GET", base, "", http.StatusNotFound)
}

func TestHTTPErrors(t *testing.T) {
	_, ts := startHTTP(t, server.Config{})

	do(t, "POST", ts.URL+"/api/sessions", `{"processes":0}`, http.StatusBadRequest)
	do(t, "POST", ts.URL+"/api/sessions", `not json`, http.StatusBadRequest)
	do(t, "GET", ts.URL+"/api/sessions/s-9999", "", http.StatusNotFound)
	do(t, "POST", ts.URL+"/api/sessions/s-9999/events", "", http.StatusNotFound)
	do(t, "DELETE", ts.URL+"/api/sessions/s-9999", "", http.StatusNotFound)

	welcome := do(t, "POST", ts.URL+"/api/sessions", `{"processes":2}`, http.StatusCreated)
	base := ts.URL + "/api/sessions/" + welcome.Session
	// Non-event frames cannot be batch-posted.
	do(t, "POST", base+"/events", `{"type":"bye"}`, http.StatusBadRequest)
	// A snapshot with a bad formula is a detection-level error.
	do(t, "POST", base+"/snapshot", `{"type":"snapshot","formula":"EF(("}`, http.StatusUnprocessableEntity)
	// A hello body over the process bound is rejected.
	do(t, "POST", ts.URL+"/api/sessions", `{"processes":1000000}`, http.StatusBadRequest)
}

// TestHTTPEventsFrameTooLong: a line over MaxFrameBytes fails the whole
// request with a typed 413 instead of ending the scan early and acking
// as if the body had been read; the lines before it were ingested.
func TestHTTPEventsFrameTooLong(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := startHTTP(t, server.Config{Registry: reg})
	welcome := do(t, "POST", ts.URL+"/api/sessions", `{"processes":1}`, http.StatusCreated)
	base := ts.URL + "/api/sessions/" + welcome.Session
	body := `{"type":"event","proc":1}` + "\n" + strings.Repeat("x", server.MaxFrameBytes+1) + "\n" + `{"type":"event","proc":1}` + "\n"
	fr := do(t, "POST", base+"/events", body, http.StatusRequestEntityTooLarge)
	if fr.Type != server.FrameError || fr.Code != server.CodeFrameTooLong {
		t.Fatalf("got %+v, want a %s error frame", fr, server.CodeFrameTooLong)
	}
	if got := do(t, "DELETE", base, "", http.StatusOK).Events; got != 1 {
		t.Fatalf("session applied %d events, want the 1 before the long line", got)
	}
	if got := reg.Counter("hb_server_protocol_errors_total", "").Value(); got != 1 {
		t.Fatalf("%d protocol errors counted, want 1", got)
	}
}

// TestHTTPHelloFrameTooLong: a hello body over MaxFrameBytes is refused
// with a typed 413, not cut at the bound and refused as malformed JSON,
// and no session is opened.
func TestHTTPHelloFrameTooLong(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := startHTTP(t, server.Config{Registry: reg})
	body := strings.Repeat(" ", server.MaxFrameBytes) + `{"processes":1}`
	fr := do(t, "POST", ts.URL+"/api/sessions", body, http.StatusRequestEntityTooLarge)
	if fr.Type != server.FrameError || fr.Code != server.CodeFrameTooLong {
		t.Fatalf("got %+v, want a %s error frame", fr, server.CodeFrameTooLong)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions open after a refused hello", n)
	}
	if got := reg.Counter("hb_server_protocol_errors_total", "").Value(); got != 1 {
		t.Fatalf("%d protocol errors counted, want 1", got)
	}
}

// TestHTTPSnapshotFrameTooLong: a snapshot body over MaxFrameBytes is
// refused with a typed 413, and the session stays open for the next one.
func TestHTTPSnapshotFrameTooLong(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := startHTTP(t, server.Config{Registry: reg})
	welcome := do(t, "POST", ts.URL+"/api/sessions", `{"processes":1}`, http.StatusCreated)
	base := ts.URL + "/api/sessions/" + welcome.Session
	body := strings.Repeat(" ", server.MaxFrameBytes) + `{"type":"snapshot","formula":"EF(conj(x@P1 == 0))"}`
	fr := do(t, "POST", base+"/snapshot", body, http.StatusRequestEntityTooLarge)
	if fr.Type != server.FrameError || fr.Code != server.CodeFrameTooLong {
		t.Fatalf("got %+v, want a %s error frame", fr, server.CodeFrameTooLong)
	}
	if got := reg.Counter("hb_server_protocol_errors_total", "").Value(); got != 1 {
		t.Fatalf("%d protocol errors counted, want 1", got)
	}
	if fr := do(t, "POST", base+"/snapshot", `{"type":"snapshot","formula":"EF(conj(x@P1 == 0))"}`, http.StatusOK); fr.Holds == nil || !*fr.Holds {
		t.Fatalf("snapshot after the refused one = %+v, want holds", fr)
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
