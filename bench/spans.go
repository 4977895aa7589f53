package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one detection or one
// batch share TraceID; Parent is the index of the enclosing span in the
// file, -1 for a root. A layer's self time is its span minus the part
// its children cover.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	TraceID int    `json:"trace_id"`
}

// recorder keeps spans in a preallocated slice and writes them out only
// after the last measurement. A nil recorder records nothing, which is
// how the untraced run turns tracing off.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// newTrace returns a fresh trace id.
func (r *recorder) newTrace() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// start opens a span and returns its index, to pass to end and to use as
// the parent of its children.
func (r *recorder) start(name string, parent, trace int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent, TraceID: trace})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// add records a span measured by the caller.
func (r *recorder) add(name string, start time.Time, d time.Duration, parent, trace int) int {
	if r == nil {
		return -1
	}
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartNs: s, EndNs: s + d.Nanoseconds(), Parent: parent, TraceID: trace})
	return len(r.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[i])
	}
	return self
}

// writeFile writes the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
