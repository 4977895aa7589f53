// Package server implements hbserver, the networked streaming
// predicate-detection service: clients open detection sessions, stream
// the events of an unfolding computation over TCP (newline-delimited
// JSON) or HTTP POST, and receive verdict frames the moment an EF watch
// fires, an AG invariant is violated, or a stable-frontier watch latches.
//
// Each session owns one online.Monitor driven by a single goroutine (the
// monitor loop) fed through a bounded queue, so detection state never
// needs locks; transports — a goroutine-per-connection TCP listener and
// an HTTP API sharing the obs telemetry mux — ingest concurrently into
// those queues under an explicit overflow policy (block for backpressure,
// drop with accounting). A snapshot request freezes the session's
// observed prefix and runs any offline core.Detect query on it, bridging
// the latching online operators to the paper's full operator set.
//
// The wire protocol is documented in DESIGN.md ("hbserver wire
// protocol"); internal/server/client is the Go client.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/jsonscan"
	"repro/internal/pir"
)

// Protocol limits. Frames arrive from untrusted network peers; every
// decode path is bounded before it allocates.
const (
	// MaxFrameBytes bounds one NDJSON frame (and one HTTP body line).
	MaxFrameBytes = 1 << 20
	// MaxProcesses bounds the per-session process count a client may
	// request; per-process monitor state is allocated up front.
	MaxProcesses = 4096
	// MaxWatches bounds the watches a hello frame may register.
	MaxWatches = 256
	// MaxKeyBytes bounds the client-chosen session key a hello frame may
	// carry in cluster mode (the key doubles as the session id and the
	// consistent-hash placement input).
	MaxKeyBytes = 128
)

// Client → server frame types.
const (
	FrameHello    = "hello"    // opens the session: processes + watches
	FrameResume   = "resume"   // reattaches to a live resumable session by id + seq
	FrameInit     = "init"     // initial variable value, before events of that process
	FrameEvent    = "event"    // one observed event (internal, send, receive)
	FrameSnapshot = "snapshot" // freeze the prefix, run an offline core.Detect query
	FrameBye      = "bye"      // orderly close; the server answers with goodbye
	FrameBatch    = "batch"    // a column-oriented run of init/event frames under one seq
)

// Server → client frame types (snapshot responses reuse FrameSnapshot).
const (
	FrameWelcome = "welcome" // session opened
	FrameVerdict = "verdict" // a watch latched
	FrameError   = "error"   // rejected frame or failed request
	FrameGoodbye = "goodbye" // session closed; final accounting
	FrameAck     = "ack"     // seq acknowledgement / HTTP batch-ingest accounting
)

// Machine-readable codes on error frames, so clients can decide whether
// a failed resume is worth retrying. CodeBusy is the only retryable one:
// the server has not yet noticed that the previous connection died.
const (
	CodeUnknownSession = "unknown-session" // no such live session (never existed, expired, or closed)
	CodeNotResumable   = "not-resumable"   // session was not opened with resumable:true
	CodeBusy           = "busy"            // another transport is still attached; retry after backoff
	CodeBadSeq         = "bad-seq"         // resume seq is negative or ahead of anything the server accepted
	CodeStaleSeq       = "stale-seq"       // resume point is further behind the accepted seq than the retention window allows
	CodeSeqGap         = "seq-gap"         // frames were lost in flight; reconnect and resume from the last ack
	CodeNotOwner       = "not-owner"       // cluster mode: this node does not host the key; dial Owner instead
	CodeStaleEpoch     = "stale-epoch"     // cluster mode: a newer incarnation of the session lives at Owner; this node's copy is fenced
	CodeKeyInUse       = "key-in-use"      // a live session already holds this key; resume it instead of re-opening
	CodeFrameTooLong   = "frame-too-long"  // a frame exceeded MaxFrameBytes; the connection closes, the session survives its policy
)

// RejectError is a typed handshake rejection. Code is one of the Code*
// constants; Owner, when set (CodeNotOwner), is the cluster node the
// client should dial instead. The transport copies both onto the error
// frame so ring-aware clients can follow the redirect.
type RejectError struct {
	Code  string
	Owner string
	Msg   string
}

func (e *RejectError) Error() string { return e.Msg }

// Watch declares one predicate watch in a hello frame.
type Watch struct {
	// Op is "EF" (fire when some consistent cut of the observed prefix
	// satisfies the predicate), "AG" (fire when the invariant is
	// violated), or "STABLE" (fire when the frontier satisfies the
	// predicate with no messages in flight — quiescence detection).
	Op string `json:"op"`
	// Pred is a conjunctive predicate in the ctl syntax:
	// conj(x@P1 == 1, y@P2 >= 2), or a single comparison.
	Pred string `json:"pred"`
}

// ClientFrame is one client → server frame. Type selects which fields
// are meaningful; processes are 1-based on the wire, matching the trace
// format and the paper's notation.
type ClientFrame struct {
	Type string `json:"type"`

	// hello. In cluster mode Session may carry a client-chosen session
	// key: it becomes the session id and the consistent-hash ring places
	// the key on a node — a hello arriving anywhere else is rejected
	// with a not-owner redirect. Standalone servers reject keyed hellos.
	Processes int     `json:"processes,omitempty"`
	Watches   []Watch `json:"watches,omitempty"`
	// Resumable opts the session into fault tolerance: init/event frames
	// carry client-assigned sequence numbers, the server triages them
	// (dup/gap) and acks periodically, and a dropped connection
	// detaches the transport instead of closing the session, so the
	// client can reattach with a resume frame.
	Resumable bool `json:"resumable,omitempty"`
	// Bounded opts the session into bounded retained state: the monitor
	// keeps only the frontier plus each watch's slice cursor instead of
	// the raw event prefix, so a long-lived session holds O(slice) state.
	// Watch verdicts are bit-identical to an unbounded session; snapshot
	// frames are rejected (the prefix they would query is not retained).
	Bounded bool `json:"bounded,omitempty"`
	// Encoding on a hello or resume frame negotiates the connection's
	// ingest encoding: "" or "ndjson" for one JSON frame per line,
	// "binary" to additionally accept length-prefixed binary batch
	// frames (see binary.go). The welcome echoes the accepted value.
	Encoding string `json:"encoding,omitempty"`
	// Durability on a keyed hello overrides the cluster node's default
	// ack-gate mode for this session: "available" keeps acking through a
	// replica outage (the outage window may be lost with the owner),
	// "durable" stalls acks until every replica is reachable again, so no
	// acked frame can be lost. Empty inherits the node default; standalone
	// servers ignore it.
	Durability string `json:"durability,omitempty"`

	// resume: Session names the session to reattach to; Seq is the
	// highest sequence number the client has seen acked. Seq also rides
	// on init/event frames of resumable sessions (1,2,3,... per session;
	// 0 means unsequenced).
	Session string `json:"session,omitempty"`
	Seq     int64  `json:"seq,omitempty"`

	// init (Proc, Var, Value) and event (Proc, Kind, Msg, Sets)
	Proc  int            `json:"proc,omitempty"`
	Var   string         `json:"var,omitempty"`
	Value int            `json:"value,omitempty"`
	Kind  string         `json:"kind,omitempty"` // "internal" (default), "send", "receive"
	Msg   int            `json:"msg,omitempty"`  // client-chosen id linking a send to its receive
	Sets  map[string]int `json:"sets,omitempty"`

	// snapshot
	ID      int    `json:"id,omitempty"` // echoed on the response
	Formula string `json:"formula,omitempty"`

	// batch: a run of init/event frames in column form, applied in
	// order under the frame's single Seq. This is how batches appear
	// on the NDJSON encoding; on the binary encoding (and in the
	// cluster's replication log) the same columns are a pir binary
	// batch payload, decoded straight into pir.Batch without passing
	// through JSON.
	Batch *pir.Batch `json:"batch,omitempty"`
}

// ServerFrame is one server → client frame. Watch and Event carry no
// omitempty: a verdict on watch 0 at event 0 is meaningful.
type ServerFrame struct {
	Type string `json:"type"`

	// welcome / goodbye
	Session   string `json:"session,omitempty"`
	Processes int    `json:"processes,omitempty"`
	Watches   int    `json:"watches,omitempty"`

	// verdict
	Watch    int    `json:"watch"` // index into the hello watch list
	Op       string `json:"op,omitempty"`
	Pred     string `json:"pred,omitempty"`
	Event    int    `json:"event"` // events ingested when the verdict latched
	Cut      []int  `json:"cut,omitempty"`
	Conjunct string `json:"conjunct,omitempty"` // failing conjunct (AG)

	// snapshot response
	ID        int    `json:"id,omitempty"`
	Holds     *bool  `json:"holds,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`

	// goodbye / ack accounting
	Events  int `json:"events,omitempty"`  // events applied to the monitor
	Dropped int `json:"dropped,omitempty"` // events shed by the overflow policy

	// Seq on an ack frame: every sequenced frame ≤ Seq has been applied
	// (the client may release its in-flight copies). On a welcome frame:
	// the server's high-water accepted seq — a resuming client replays
	// only what is above it.
	Seq int64 `json:"seq,omitempty"`
	// Idx is the 1-based position of a recorded (verdict/error) frame in
	// the session's latched-frame log. Resume replays the log; clients
	// drop frames whose Idx they have already seen, so redelivery is
	// idempotent.
	Idx int `json:"idx,omitempty"`
	// Resumed marks the welcome frame of a resume handshake.
	Resumed bool `json:"resumed,omitempty"`
	// Encoding on a welcome frame echoes the negotiated ingest
	// encoding (empty means NDJSON-only).
	Encoding string `json:"encoding,omitempty"`

	Error string `json:"error,omitempty"`
	// Code classifies error frames (Code* constants); empty for
	// free-form semantic errors.
	Code string `json:"code,omitempty"`
	// Owner accompanies CodeNotOwner: the cluster node that hosts the
	// session's placement — the address to dial instead.
	Owner string `json:"owner,omitempty"`
}

// DecodeClientFrame parses one NDJSON line into a ClientFrame. Unknown
// fields and trailing data are rejected so a desynchronized or hostile
// stream fails loudly instead of silently dropping constraints. It
// accepts what encoding/json with DisallowUnknownFields accepts (see
// jsonscan), except that keys must match exactly. Only the batch subtree,
// which the Go client sends in binary, decodes through encoding/json.
func DecodeClientFrame(line []byte) (ClientFrame, error) {
	var f ClientFrame
	if len(line) > MaxFrameBytes {
		return f, fmt.Errorf("server: frame exceeds %d bytes", MaxFrameBytes)
	}
	d := decoders.Get().(*frameDecoder)
	d.Reset(line)
	err := d.frame(&f)
	if err == nil && !d.Done() {
		err = fmt.Errorf("server: trailing data after frame")
	}
	d.Reset(nil)
	decoders.Put(d)
	return f, err
}

// frameDecoder is one client-frame scanner. Decoders are pooled, so each
// keeps its interned variable names across frames and an event frame
// allocates nothing but its sets map.
type frameDecoder struct{ jsonscan.Scanner }

var decoders = sync.Pool{New: func() any {
	return &frameDecoder{jsonscan.Scanner{Prefix: "server: bad frame: "}}
}}

func (d *frameDecoder) frame(f *ClientFrame) error {
	if d.WS(); d.Null() {
		return nil
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "type":
			return d.word(&f.Type)
		case "processes":
			return d.IntField(&f.Processes)
		case "watches":
			return jsonscan.Into(&d.Scanner, &f.Watches, d.watch)
		case "resumable":
			return d.BoolField(&f.Resumable)
		case "bounded":
			return d.BoolField(&f.Bounded)
		case "encoding":
			return d.StrField(&f.Encoding)
		case "durability":
			return d.StrField(&f.Durability)
		case "session":
			return d.TextField(&f.Session)
		case "seq":
			return d.Int64Field(&f.Seq)
		case "proc":
			return d.IntField(&f.Proc)
		case "var":
			return d.StrField(&f.Var)
		case "value":
			return d.IntField(&f.Value)
		case "kind":
			return d.word(&f.Kind)
		case "msg":
			return d.IntField(&f.Msg)
		case "sets":
			return d.sets(&f.Sets)
		case "id":
			return d.IntField(&f.ID)
		case "formula":
			return d.TextField(&f.Formula)
		case "batch":
			return d.batch(&f.Batch)
		}
		return d.Unknown(key)
	})
}

func (d *frameDecoder) watch(w *Watch) error {
	if d.Null() {
		return nil
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "op":
			return d.StrField(&w.Op)
		case "pred":
			return d.TextField(&w.Pred)
		}
		return d.Unknown(key)
	})
}

// batch decodes the batch subtree over *dst with encoding/json, through a
// copy of the pointer so that only this path moves a value to the heap.
func (d *frameDecoder) batch(dst **pir.Batch) error {
	b := *dst
	dec := json.NewDecoder(bytes.NewReader(d.Rest()))
	dec.DisallowUnknownFields()
	err := dec.Decode(&b)
	d.Skip(int(dec.InputOffset()))
	*dst = b
	if err != nil {
		return d.Errorf("%v", err)
	}
	return nil
}

// words are the values of a frame's type and kind fields.
var words = [...]string{FrameEvent, "send", "receive", "internal", FrameInit, FrameBatch, FrameHello, FrameResume, FrameSnapshot, FrameBye}

// word scans a type or kind into dst as one of the words constants, so
// that these values are neither hashed nor allocated; any other string is
// copied. Null leaves dst alone.
func (d *frameDecoder) word(dst *string) error {
	if d.Null() {
		return nil
	}
	b, err := d.Str()
	for _, w := range words {
		if string(b) == w {
			*dst = w
			return err
		}
	}
	*dst = string(b)
	return err
}

// sets decodes an object into *m as encoding/json decodes into a map it
// holds already: entries merge into it, a null value assigns 0, and null
// for the whole object leaves nil.
func (d *frameDecoder) sets(m *map[string]int) error {
	if d.Null() {
		*m = nil
		return nil
	}
	if *m == nil {
		*m = make(map[string]int, 8) // one group: no growth below 8 sets
	}
	return d.Object(func(key []byte) error {
		name, v := d.Intern(key), 0
		err := d.IntField(&v)
		(*m)[name] = v
		return err
	})
}

// ValidateHello checks the structural constraints of a hello frame;
// watch predicates are parsed later by Open.
func ValidateHello(f ClientFrame) error {
	if f.Type != FrameHello {
		return fmt.Errorf("server: first frame must be %q, got %q", FrameHello, f.Type)
	}
	if f.Processes < 1 || f.Processes > MaxProcesses {
		return fmt.Errorf("server: processes must be in [1,%d], got %d", MaxProcesses, f.Processes)
	}
	if len(f.Watches) > MaxWatches {
		return fmt.Errorf("server: at most %d watches, got %d", MaxWatches, len(f.Watches))
	}
	if f.Session != "" {
		if err := ValidateKey(f.Session); err != nil {
			return err
		}
	}
	// The string literals rather than cluster.ParseDurability: the server
	// package must not import its own integration layer.
	switch f.Durability {
	case "", "available", "durable":
	default:
		return fmt.Errorf("server: unknown durability %q (want available or durable)", f.Durability)
	}
	return ValidateEncoding(f.Encoding)
}

// ValidateKey checks a client-chosen session key: bounded, printable,
// and outside the server's auto-assigned id namespace ("s-...") so a
// keyed session can never collide with or spoof an auto-id one.
func ValidateKey(key string) error {
	if len(key) > MaxKeyBytes {
		return fmt.Errorf("server: session key exceeds %d bytes", MaxKeyBytes)
	}
	if len(key) >= 2 && key[0] == 's' && key[1] == '-' {
		return fmt.Errorf("server: session key %q is inside the auto-id namespace s-", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-', c == ':':
		default:
			return fmt.Errorf("server: session key contains %q (want [a-zA-Z0-9._:-])", c)
		}
	}
	return nil
}

// ValidateResume checks the structural constraints of a resume frame.
// A hostile seq (negative, or absurdly ahead) is rejected here or by the
// per-session window check; it must never corrupt session state.
func ValidateResume(f ClientFrame) error {
	if f.Type != FrameResume {
		return fmt.Errorf("server: expected %q frame, got %q", FrameResume, f.Type)
	}
	if f.Session == "" {
		return fmt.Errorf("server: resume without session id")
	}
	if f.Seq < 0 {
		return fmt.Errorf("server: resume with negative seq %d", f.Seq)
	}
	return ValidateEncoding(f.Encoding)
}

// AppendFrame appends fr and a newline to b: byte for byte what
// json.Marshal writes for fr, fields in declaration order, empty ones
// omitted but for watch and event, strings escaped as encoding/json
// escapes them. It is the server's one encoder of server frames.
func AppendFrame(b []byte, fr *ServerFrame) []byte {
	b = jsonscan.AppendString(append(b, `{"type":`...), fr.Type)
	b = jsonscan.AppendNonEmpty(b, `,"session":`, fr.Session)
	b = jsonscan.AppendNonZero(b, `,"processes":`, int64(fr.Processes))
	b = jsonscan.AppendNonZero(b, `,"watches":`, int64(fr.Watches))
	b = strconv.AppendInt(append(b, `,"watch":`...), int64(fr.Watch), 10)
	b = jsonscan.AppendNonEmpty(b, `,"op":`, fr.Op)
	b = jsonscan.AppendNonEmpty(b, `,"pred":`, fr.Pred)
	b = strconv.AppendInt(append(b, `,"event":`...), int64(fr.Event), 10)
	for i, c := range fr.Cut {
		if i == 0 {
			b = append(b, `,"cut":[`...)
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	if len(fr.Cut) > 0 {
		b = append(b, ']')
	}
	b = jsonscan.AppendNonEmpty(b, `,"conjunct":`, fr.Conjunct)
	b = jsonscan.AppendNonZero(b, `,"id":`, int64(fr.ID))
	if fr.Holds != nil {
		b = strconv.AppendBool(append(b, `,"holds":`...), *fr.Holds)
	}
	b = jsonscan.AppendNonEmpty(b, `,"algorithm":`, fr.Algorithm)
	b = jsonscan.AppendNonZero(b, `,"events":`, int64(fr.Events))
	b = jsonscan.AppendNonZero(b, `,"dropped":`, int64(fr.Dropped))
	b = jsonscan.AppendNonZero(b, `,"seq":`, fr.Seq)
	b = jsonscan.AppendNonZero(b, `,"idx":`, int64(fr.Idx))
	if fr.Resumed {
		b = append(b, `,"resumed":true`...)
	}
	b = jsonscan.AppendNonEmpty(b, `,"encoding":`, fr.Encoding)
	b = jsonscan.AppendNonEmpty(b, `,"error":`, fr.Error)
	b = jsonscan.AppendNonEmpty(b, `,"code":`, fr.Code)
	b = jsonscan.AppendNonEmpty(b, `,"owner":`, fr.Owner)
	return append(b, "}\n"...)
}
