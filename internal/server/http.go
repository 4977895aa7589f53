package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// RegisterHTTP mounts the session API on mux (typically the obs
// telemetry mux, so one port serves ingest and metrics):
//
//	POST   /api/sessions              hello frame body → welcome frame
//	GET    /api/sessions/{id}         session status
//	POST   /api/sessions/{id}/events  NDJSON init/event frames → ack frame
//	GET    /api/sessions/{id}/verdicts latched verdict/error frames (NDJSON)
//	POST   /api/sessions/{id}/snapshot snapshot frame body → snapshot frame
//	DELETE /api/sessions/{id}         close session → goodbye frame
//
// HTTP sessions have no push channel; clients poll verdicts. The idle
// janitor reclaims sessions whose clients vanish.
func RegisterHTTP(mux *http.ServeMux, srv *Server) {
	mux.HandleFunc("POST /api/sessions", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxFrameBytes))
		if err != nil {
			readError(w, srv, err)
			return
		}
		f, err := DecodeClientFrame(body)
		if err == nil {
			if f.Type == "" {
				f.Type = FrameHello // bare {"processes":...} bodies are fine
			}
			err = ValidateHello(f)
		}
		if err != nil {
			srv.met.protoErrors.Inc()
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		sess, err := srv.Open(SessionConfig{Processes: f.Processes, Watches: f.Watches, Bounded: f.Bounded})
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, sess.Welcome())
	})

	mux.HandleFunc("GET /api/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess := srv.Session(r.PathValue("id"))
		if sess == nil {
			httpError(w, http.StatusNotFound, "no such session")
			return
		}
		writeJSON(w, http.StatusOK, ServerFrame{
			Type:      FrameAck,
			Session:   sess.ID(),
			Processes: sess.N(),
			Events:    int(sess.Events()),
			Dropped:   int(sess.Dropped()),
			// Resumable-session accounting: high-water applied seq and
			// whether the session survives transport loss.
			Seq:     sess.AckedSeq(),
			Resumed: sess.Resumable(),
		})
	})

	mux.HandleFunc("POST /api/sessions/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		sess := srv.Session(r.PathValue("id"))
		if sess == nil {
			httpError(w, http.StatusNotFound, "no such session")
			return
		}
		sc := NewFrameScanner(http.MaxBytesReader(w, r.Body, 64*MaxFrameBytes))
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			f, err := DecodeClientFrame(sc.Bytes())
			if err != nil {
				srv.met.protoErrors.Inc()
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			switch f.Type {
			case FrameInit, FrameEvent:
			default:
				srv.met.protoErrors.Inc()
				httpError(w, http.StatusBadRequest, "only init and event frames may be posted to /events, got %q", f.Type)
				return
			}
			switch err := sess.Ingest(f); err {
			case nil, ErrDropped: // drops are counted in the ack
			default:
				httpError(w, http.StatusGone, "session closed")
				return
			}
		}
		// A line over MaxFrameBytes or a failed read ends the scan early:
		// the lines after it were not ingested, so the request failed.
		if err := sc.Err(); err != nil {
			readError(w, srv, err)
			return
		}
		// Barrier: the ack's accounting must cover the batch it acks.
		if err := sess.Flush(); err != nil {
			httpError(w, http.StatusGone, "session closed")
			return
		}
		writeJSON(w, http.StatusOK, ServerFrame{
			Type:    FrameAck,
			Session: sess.ID(),
			Events:  int(sess.Events()),
			Dropped: int(sess.Dropped()),
		})
	})

	mux.HandleFunc("GET /api/sessions/{id}/verdicts", func(w http.ResponseWriter, r *http.Request) {
		sess := srv.Session(r.PathValue("id"))
		if sess == nil {
			httpError(w, http.StatusNotFound, "no such session")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		var b []byte
		for _, fr := range sess.Frames() {
			b = AppendFrame(b, &fr)
		}
		w.Write(b)
	})

	mux.HandleFunc("POST /api/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		sess := srv.Session(r.PathValue("id"))
		if sess == nil {
			httpError(w, http.StatusNotFound, "no such session")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxFrameBytes))
		if err != nil {
			readError(w, srv, err)
			return
		}
		f, err := DecodeClientFrame(body)
		if err != nil {
			srv.met.protoErrors.Inc()
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		fr, err := sess.Snapshot(f.Formula, f.ID)
		if err != nil {
			if fr.Type == FrameError { // detection-level error, frame has details
				writeJSON(w, http.StatusUnprocessableEntity, fr)
				return
			}
			httpError(w, http.StatusGone, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, fr)
	})

	mux.HandleFunc("DELETE /api/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		sess := srv.Session(r.PathValue("id"))
		if sess == nil {
			httpError(w, http.StatusNotFound, "no such session")
			return
		}
		sess.Close("bye")
		<-sess.Done()
		if gb := sess.Goodbye(); gb != nil {
			writeJSON(w, http.StatusOK, *gb)
			return
		}
		writeJSON(w, http.StatusOK, ServerFrame{Type: FrameGoodbye, Session: sess.ID()})
	})
}

// readError answers a request whose body could not be read: 413 with
// code frame-too-long for a frame, line or body over its bound, as TCP
// answers an oversized frame, else 400.
func readError(w http.ResponseWriter, srv *Server, err error) {
	srv.met.protoErrors.Inc()
	status, code := http.StatusBadRequest, ""
	var tooBig *http.MaxBytesError
	if errors.Is(err, ErrFrameTooLong) || errors.As(err, &tooBig) {
		status, code = http.StatusRequestEntityTooLarge, CodeFrameTooLong
	}
	writeJSON(w, status, ServerFrame{Type: FrameError, Code: code, Error: "read body: " + err.Error()})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ServerFrame{Type: FrameError, Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
