// Batch is the lowered wire representation of a run of ingest events:
// instead of one AST-shaped ClientFrame per event, a batch carries the
// events of many frames in parallel columns (struct-of-arrays), the
// same shape the bitset lowering wants, so the server's hot path
// decodes bytes straight into the form the monitor consumes and skips
// per-event JSON decoding entirely. Batches travel either as a "batch"
// NDJSON frame (JSON column encoding) or as the binary payload of a
// length-prefixed batch frame (see the server package for framing and
// negotiation); the cluster's replication log stores and ships the same
// binary payload, one self-contained entry per accepted frame.
//
// The binary payload interns variable names in a per-connection
// VarTable: a name is declared once with an explicit index and
// referenced by index afterwards, so steady-state event encoding
// carries no strings at all. Declarations carry their index explicitly
// so re-decoding a duplicated frame (at-least-once redelivery through
// a flaky link) is idempotent on the table.
package pir

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Event kinds inside a Batch. The first three mirror computation.Kind;
// EvInit is a batched init frame (initial variable value, before any
// event of that process).
const (
	EvInternal byte = 0
	EvSend     byte = 1
	EvReceive  byte = 2
	EvInit     byte = 3
)

// Decode bounds. Counts arrive from untrusted peers; both caps bound
// allocation before it happens.
const (
	// MaxBatchEvents bounds the events one batch may carry.
	MaxBatchEvents = 1 << 16
	// MaxBatchVars bounds the per-connection interned-name table.
	MaxBatchVars = 1 << 16
)

// VarSet is one variable assignment riding on an event. The short JSON
// keys keep the NDJSON batch encoding compact.
type VarSet struct {
	Name string `json:"n"`
	Val  int    `json:"v"`
}

// Batch is a column-oriented run of ingest events. All columns are
// parallel: event i is (Procs[i], Kinds[i], Msgs[i]) with variable
// assignments Sets[SetOff[i]:SetOff[i+1]]. Procs are 1-based wire
// process ids, exactly as on single event frames. Msgs may be nil when
// no event carries a message id.
type Batch struct {
	Procs  []int32  `json:"procs"`
	Kinds  []byte   `json:"kinds"`
	Msgs   []int32  `json:"msgs,omitempty"`
	SetOff []uint32 `json:"setoff"`
	Sets   []VarSet `json:"sets,omitempty"`

	// pooled marks batches handed out by GetBatch; only those return to
	// the pool on Recycle, so JSON-decoded and Cloned batches (which
	// outlive the apply path) can never be recycled under a reader.
	pooled bool
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty pooled batch. Callers must Recycle it when
// the apply path is done with it.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.pooled = true
	return b
}

// Recycle resets b and returns it to the pool. It is a no-op on
// batches that did not come from GetBatch (JSON-decoded, Cloned, or
// zero-value), so calling it unconditionally after apply is safe.
func (b *Batch) Recycle() {
	if b == nil || !b.pooled {
		return
	}
	b.Reset()
	b.pooled = false
	batchPool.Put(b)
}

// Reset empties the columns, keeping capacity.
func (b *Batch) Reset() {
	b.Procs = b.Procs[:0]
	b.Kinds = b.Kinds[:0]
	b.Msgs = b.Msgs[:0]
	b.SetOff = b.SetOff[:0]
	b.Sets = b.Sets[:0]
}

// Clone returns an unpooled deep copy, safe to retain after the
// original is recycled. Interned name strings are shared (strings are
// immutable).
func (b *Batch) Clone() *Batch {
	c := &Batch{
		Procs:  append([]int32(nil), b.Procs...),
		Kinds:  append([]byte(nil), b.Kinds...),
		SetOff: append([]uint32(nil), b.SetOff...),
		Sets:   append([]VarSet(nil), b.Sets...),
	}
	if b.Msgs != nil {
		c.Msgs = append([]int32(nil), b.Msgs...)
	}
	return c
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return len(b.Procs) }

// Msg returns the message id of event i (0 when the Msgs column is
// absent).
func (b *Batch) Msg(i int) int {
	if b.Msgs == nil {
		return 0
	}
	return int(b.Msgs[i])
}

// AddInit appends a batched init frame: initial value of one variable
// on proc (1-based wire id).
func (b *Batch) AddInit(proc int, name string, val int) {
	b.begin(proc, EvInit, 0)
	b.Sets = append(b.Sets, VarSet{Name: name, Val: val})
	b.SetOff[len(b.SetOff)-1] = uint32(len(b.Sets))
}

// AddEvent appends one event. The sets map is copied now, so the
// caller may reuse or mutate it afterwards.
func (b *Batch) AddEvent(proc int, kind byte, msg int, sets map[string]int) {
	b.begin(proc, kind, msg)
	for name, v := range sets {
		b.Sets = append(b.Sets, VarSet{Name: name, Val: v})
	}
	b.SetOff[len(b.SetOff)-1] = uint32(len(b.Sets))
}

// AddRow appends one event whose assignments are already a row of
// VarSets (another batch's Sets[lo:hi]), copied in order.
func (b *Batch) AddRow(proc int, kind byte, msg int, sets []VarSet) {
	b.begin(proc, kind, msg)
	b.Sets = append(b.Sets, sets...)
	b.SetOff[len(b.SetOff)-1] = uint32(len(b.Sets))
}

func (b *Batch) begin(proc int, kind byte, msg int) {
	if len(b.SetOff) == 0 {
		b.SetOff = append(b.SetOff, 0)
	}
	b.Procs = append(b.Procs, int32(proc))
	b.Kinds = append(b.Kinds, kind)
	b.Msgs = append(b.Msgs, int32(msg))
	b.SetOff = append(b.SetOff, uint32(len(b.Sets)))
}

// Validate checks the structural invariants of a batch. Binary decode
// only constructs valid batches; JSON-decoded batches (the "batch"
// NDJSON frame) arrive from untrusted bytes and must pass here before
// apply.
func (b *Batch) Validate() error {
	n := len(b.Procs)
	if n > MaxBatchEvents {
		return fmt.Errorf("pir: batch of %d events exceeds %d", n, MaxBatchEvents)
	}
	if len(b.Kinds) != n {
		return fmt.Errorf("pir: kinds column has %d entries for %d events", len(b.Kinds), n)
	}
	if b.Msgs != nil && len(b.Msgs) != n {
		return fmt.Errorf("pir: msgs column has %d entries for %d events", len(b.Msgs), n)
	}
	if n == 0 {
		if len(b.SetOff) > 1 || len(b.Sets) != 0 {
			return fmt.Errorf("pir: empty batch with set columns")
		}
		return nil
	}
	if len(b.SetOff) != n+1 {
		return fmt.Errorf("pir: setoff column has %d entries for %d events", len(b.SetOff), n)
	}
	if b.SetOff[0] != 0 || b.SetOff[n] != uint32(len(b.Sets)) {
		return fmt.Errorf("pir: setoff endpoints [%d,%d] do not span %d sets", b.SetOff[0], b.SetOff[n], len(b.Sets))
	}
	for i := 0; i < n; i++ {
		if b.SetOff[i] > b.SetOff[i+1] {
			return fmt.Errorf("pir: setoff not monotone at event %d", i)
		}
		if b.Kinds[i] > EvInit {
			return fmt.Errorf("pir: unknown event kind %d at event %d", b.Kinds[i], i)
		}
		if b.Kinds[i] == EvInit && b.SetOff[i+1] != b.SetOff[i]+1 {
			return fmt.Errorf("pir: init event %d carries %d assignments (want 1)", i, b.SetOff[i+1]-b.SetOff[i])
		}
	}
	return nil
}

// VarTable interns variable names across the batches of one
// connection. The encoder and decoder each keep one and must reset it
// whenever the transport reconnects: declarations are per-connection,
// so a resumed stream re-declares names and the two tables stay in
// step without any handshake.
type VarTable struct {
	names []string
	idx   map[string]int
}

// Reset empties the table. Call on every (re)connect, both sides.
func (t *VarTable) Reset() {
	t.names = t.names[:0]
	clear(t.idx)
}

// internEncode returns the index of name, adding it if new. The second
// result is true when the name was already known (encode a reference)
// and false when this call declared it (encode the declaration).
func (t *VarTable) internEncode(name string) (int, bool) {
	if t.idx == nil {
		t.idx = make(map[string]int)
	}
	if i, ok := t.idx[name]; ok {
		return i, true
	}
	i := len(t.names)
	t.names = append(t.names, name)
	t.idx[name] = i
	return i, false
}

// Binary payload layout (all integers varint; values zigzag-varint):
//
//	uvarint seq            client-assigned batch sequence (0 = unsequenced)
//	uvarint count          events in the batch
//	per event:
//	  uvarint proc<<2|kind 1-based proc, kind in the low two bits
//	  send/receive: zigzag msg
//	  init:         key, zigzag value          (exactly one assignment)
//	  otherwise:    uvarint nsets, then (key, zigzag value)*
//
// A key is uvarint k: low bit set means a declaration — the name index
// is k>>1, followed by uvarint length and the name bytes, and the
// decoder appends (or verifies, on redelivery) table entry k>>1; low
// bit clear is a reference to existing entry k>>1.
//
// The seq leads the payload so the transport can run dup/gap triage
// before touching the event body.

// AppendBatch appends the binary payload for b with sequence seq,
// interning names through t, and returns the extended slice.
func AppendBatch(dst []byte, seq int64, b *Batch, t *VarTable) []byte {
	dst = binary.AppendUvarint(dst, uint64(seq))
	n := b.Len()
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := 0; i < n; i++ {
		kind := b.Kinds[i]
		dst = binary.AppendUvarint(dst, uint64(b.Procs[i])<<2|uint64(kind))
		if kind == EvSend || kind == EvReceive {
			dst = appendZigzag(dst, int64(b.Msg(i)))
		}
		lo, hi := b.SetOff[i], b.SetOff[i+1]
		if kind != EvInit {
			dst = binary.AppendUvarint(dst, uint64(hi-lo))
		}
		for _, vs := range b.Sets[lo:hi] {
			dst = appendKey(dst, vs.Name, t)
			dst = appendZigzag(dst, int64(vs.Val))
		}
	}
	return dst
}

func appendKey(dst []byte, name string, t *VarTable) []byte {
	i, known := t.internEncode(name)
	if known {
		return binary.AppendUvarint(dst, uint64(i)<<1)
	}
	dst = binary.AppendUvarint(dst, uint64(i)<<1|1)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// BatchSeq peels the leading sequence number off a binary batch
// payload, returning the event body. The transport triages seq
// (dup/gap) on this alone, before any decode touches the var table.
func BatchSeq(payload []byte) (seq int64, body []byte, err error) {
	u, n := binary.Uvarint(payload)
	if n <= 0 || u > uint64(1)<<62 {
		return 0, nil, fmt.Errorf("pir: bad batch seq")
	}
	return int64(u), payload[n:], nil
}

// DecodeBody decodes a binary batch body (from BatchSeq) into b,
// resolving names through t. Decoding a duplicated payload is
// idempotent on t (declarations carry explicit indexes); a truncated
// or hostile payload returns an error with b in an undefined (but
// bounded and recyclable) state.
func (b *Batch) DecodeBody(body []byte, t *VarTable) error {
	b.Reset()
	count, n := binary.Uvarint(body)
	if n <= 0 || count > MaxBatchEvents {
		return fmt.Errorf("pir: bad batch count")
	}
	body = body[n:]
	b.SetOff = append(b.SetOff, 0)
	for i := uint64(0); i < count; i++ {
		head, n := binary.Uvarint(body)
		if n <= 0 || head>>2 > math.MaxInt32 {
			return fmt.Errorf("pir: bad event head")
		}
		body = body[n:]
		kind := byte(head & 3)
		b.Procs = append(b.Procs, int32(head>>2))
		b.Kinds = append(b.Kinds, kind)
		var msg int64
		if kind == EvSend || kind == EvReceive {
			var err error
			if msg, body, err = decodeZigzag(body); err != nil {
				return err
			}
			if msg != int64(int32(msg)) {
				return fmt.Errorf("pir: message id %d outside the int32 range", msg)
			}
		}
		b.Msgs = append(b.Msgs, int32(msg))
		nsets := uint64(1)
		if kind != EvInit {
			nsets, n = binary.Uvarint(body)
			if n <= 0 || nsets > uint64(len(body)) {
				return fmt.Errorf("pir: bad set count")
			}
			body = body[n:]
		}
		for j := uint64(0); j < nsets; j++ {
			name, rest, err := decodeKey(body, t)
			if err != nil {
				return err
			}
			v, rest, err := decodeZigzag(rest)
			if err != nil {
				return err
			}
			body = rest
			b.Sets = append(b.Sets, VarSet{Name: name, Val: int(v)})
		}
		b.SetOff = append(b.SetOff, uint32(len(b.Sets)))
	}
	if len(body) != 0 {
		return fmt.Errorf("pir: %d trailing bytes after batch", len(body))
	}
	return nil
}

func decodeKey(body []byte, t *VarTable) (string, []byte, error) {
	k, n := binary.Uvarint(body)
	if n <= 0 {
		return "", nil, fmt.Errorf("pir: bad var key")
	}
	body = body[n:]
	i := int(k >> 1)
	if k&1 == 0 {
		if i >= len(t.names) {
			return "", nil, fmt.Errorf("pir: var reference %d beyond table of %d", i, len(t.names))
		}
		return t.names[i], body, nil
	}
	ln, n := binary.Uvarint(body)
	if n <= 0 || ln > uint64(len(body)-n) {
		return "", nil, fmt.Errorf("pir: bad var declaration")
	}
	name := string(body[n : n+int(ln)])
	body = body[n+int(ln):]
	switch {
	case i == len(t.names):
		if len(t.names) >= MaxBatchVars {
			return "", nil, fmt.Errorf("pir: var table exceeds %d names", MaxBatchVars)
		}
		if t.idx == nil {
			t.idx = make(map[string]int)
		}
		t.names = append(t.names, name)
		t.idx[name] = i
	case i < len(t.names):
		// Redelivered declaration (duplicated frame): must agree.
		if t.names[i] != name {
			return "", nil, fmt.Errorf("pir: var declaration %d=%q conflicts with %q", i, name, t.names[i])
		}
	default:
		return "", nil, fmt.Errorf("pir: var declaration %d skips table of %d", i, len(t.names))
	}
	return name, body, nil
}

func decodeZigzag(body []byte) (int64, []byte, error) {
	u, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, fmt.Errorf("pir: bad varint value")
	}
	return int64(u>>1) ^ -int64(u&1), body[n:], nil
}
