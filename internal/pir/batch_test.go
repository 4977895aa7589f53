package pir

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

func sampleBatch() *Batch {
	b := &Batch{}
	b.AddInit(1, "x", 3)
	b.AddEvent(1, EvSend, 7, map[string]int{"x": -2, "longer_name": 1 << 30})
	b.AddEvent(2, EvReceive, 7, nil)
	b.AddEvent(3, EvInternal, 0, map[string]int{"x": 0})
	return b
}

// TestBatchRoundTrip: encode → BatchSeq → DecodeBody must reproduce
// the batch exactly, with encoder and decoder tables built
// independently.
func TestBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	if err := b.Validate(); err != nil {
		t.Fatalf("sample batch invalid: %v", err)
	}
	var enc VarTable
	payload := AppendBatch(nil, 42, b, &enc)

	seq, body, err := BatchSeq(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("seq = %d, want 42", seq)
	}
	var dec VarTable
	got := &Batch{}
	if err := got.DecodeBody(body, &dec); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded batch invalid: %v", err)
	}
	if !reflect.DeepEqual(got.Procs, b.Procs) || !reflect.DeepEqual(got.Kinds, b.Kinds) ||
		!reflect.DeepEqual(got.SetOff, b.SetOff) || !reflect.DeepEqual(got.Sets, b.Sets) {
		t.Fatalf("decoded batch differs:\n got %+v\nwant %+v", got, b)
	}
	for i := 0; i < b.Len(); i++ {
		if got.Msg(i) != b.Msg(i) {
			t.Fatalf("event %d msg = %d, want %d", i, got.Msg(i), b.Msg(i))
		}
	}
}

// TestBatchInterningAcrossBatches: the second batch on a connection
// references interned names instead of re-declaring them, and still
// decodes — steady-state events carry no strings.
func TestBatchInterningAcrossBatches(t *testing.T) {
	var enc, dec VarTable
	first := &Batch{}
	first.AddEvent(1, EvInternal, 0, map[string]int{"x": 1})
	p1 := AppendBatch(nil, 1, first, &enc)

	second := &Batch{}
	second.AddEvent(2, EvInternal, 0, map[string]int{"x": 2})
	p2 := AppendBatch(nil, 2, second, &enc)
	if len(p2) >= len(p1) {
		t.Fatalf("reference encoding (%dB) not smaller than declaration (%dB)", len(p2), len(p1))
	}

	for _, p := range [][]byte{p1, p2} {
		_, body, err := BatchSeq(p)
		if err != nil {
			t.Fatal(err)
		}
		got := &Batch{}
		if err := got.DecodeBody(body, &dec); err != nil {
			t.Fatal(err)
		}
		if got.Sets[0].Name != "x" {
			t.Fatalf("decoded name %q, want x", got.Sets[0].Name)
		}
	}

	// A reference without the declaration (fresh decoder table, as after
	// a silently dropped first batch) must fail, not mis-resolve.
	var fresh VarTable
	_, body, _ := BatchSeq(p2)
	if err := (&Batch{}).DecodeBody(body, &fresh); err == nil {
		t.Fatal("dangling var reference decoded successfully")
	}
}

// TestBatchDecodeIdempotentOnRedelivery: decoding the same payload
// twice against one table (a duplicated frame on a flaky link) leaves
// the table consistent and yields the same batch.
func TestBatchDecodeIdempotentOnRedelivery(t *testing.T) {
	b := sampleBatch()
	var enc, dec VarTable
	payload := AppendBatch(nil, 1, b, &enc)
	_, body, err := BatchSeq(payload)
	if err != nil {
		t.Fatal(err)
	}
	first, second := &Batch{}, &Batch{}
	if err := first.DecodeBody(body, &dec); err != nil {
		t.Fatal(err)
	}
	if err := second.DecodeBody(body, &dec); err != nil {
		t.Fatalf("redelivered payload failed decode: %v", err)
	}
	if !reflect.DeepEqual(first.Sets, second.Sets) {
		t.Fatalf("redelivery decoded differently: %+v vs %+v", first.Sets, second.Sets)
	}

	// A conflicting redeclaration of an occupied slot must be rejected —
	// that is table desynchronization, not redelivery.
	var enc2 VarTable
	conflict := &Batch{}
	conflict.AddEvent(1, EvInternal, 0, map[string]int{"y": 1})
	p2 := AppendBatch(nil, 2, conflict, &enc2) // fresh table: "y" declared at index 0
	_, body2, _ := BatchSeq(p2)
	if err := (&Batch{}).DecodeBody(body2, &dec); err == nil {
		t.Fatal("conflicting declaration for an occupied index decoded successfully")
	}
}

// TestBatchRecycleAndClone: Recycle is a no-op on unpooled batches
// (JSON-decoded, cloned, zero-value), and a Clone survives its
// original's recycling.
func TestBatchRecycleAndClone(t *testing.T) {
	b := GetBatch()
	b.AddEvent(1, EvSend, 9, map[string]int{"x": 5})
	c := b.Clone()
	b.Recycle()
	if c.Len() != 1 || c.Sets[0] != (VarSet{Name: "x", Val: 5}) || c.Msg(0) != 9 {
		t.Fatalf("clone damaged by recycle: %+v", c)
	}
	c.Recycle() // must not enter the pool
	if c.Len() != 1 {
		t.Fatal("Recycle reset an unpooled batch")
	}
	var nilBatch *Batch
	nilBatch.Recycle() // nil-safe
}

// TestBatchJSONRoundTrip: the NDJSON column encoding (cluster
// replication, recovery replay) survives a JSON round trip and
// validates.
func TestBatchJSONRoundTrip(t *testing.T) {
	b := sampleBatch()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := &Batch{}
	if err := json.Unmarshal(raw, got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("JSON round trip invalid: %v", err)
	}
	if !reflect.DeepEqual(got.Sets, b.Sets) {
		t.Fatalf("JSON round trip differs: %+v vs %+v", got.Sets, b.Sets)
	}
}

// TestBatchSeqBounds: hostile sequence headers are rejected before any
// body bytes are touched.
func TestBatchSeqBounds(t *testing.T) {
	if _, _, err := BatchSeq(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	// 2^63 overflows the int64 seq.
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, _, err := BatchSeq(huge); err == nil {
		t.Fatal("overflowing seq accepted")
	}
}

// TestVarTableReset: a reset table re-declares from scratch, matching
// the per-connection lifecycle both endpoints follow.
func TestVarTableReset(t *testing.T) {
	var enc VarTable
	b := &Batch{}
	b.AddEvent(1, EvInternal, 0, map[string]int{"x": 1})
	p1 := AppendBatch(nil, 1, b, &enc)
	enc.Reset()
	p2 := AppendBatch(nil, 1, b, &enc)
	if string(p1) != string(p2) {
		t.Fatal("reset table did not re-declare names")
	}
}

// TestBatchDecodeRejectsNarrowing: ids that do not fit a batch row's
// int32 columns are decode errors, never silently wrapped — 2³¹ as a
// proc would turn negative, 2³²+1 as a msg would alias message 1.
func TestBatchDecodeRejectsNarrowing(t *testing.T) {
	event := func(head uint64, msg int64) []byte {
		body := binary.AppendUvarint(nil, 1) // count
		body = binary.AppendUvarint(body, head)
		if k := byte(head & 3); k == EvSend || k == EvReceive {
			body = appendZigzag(body, msg)
		}
		return binary.AppendUvarint(body, 0) // nsets
	}
	for _, c := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"proc 2^31-1", event((1<<31-1)<<2|uint64(EvInternal), 0), true},
		{"proc 2^31", event(1<<31<<2|uint64(EvInternal), 0), false},
		{"msg 2^31-1", event(1<<2|uint64(EvSend), 1<<31-1), true},
		{"msg -2^31", event(1<<2|uint64(EvReceive), -1<<31), true},
		{"msg 2^31", event(1<<2|uint64(EvSend), 1<<31), false},
		{"msg 2^32+1", event(1<<2|uint64(EvReceive), 1<<32+1), false},
		{"msg -2^31-1", event(1<<2|uint64(EvSend), -1<<31-1), false},
	} {
		b := &Batch{}
		err := b.DecodeBody(c.body, &VarTable{})
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: decoded as proc %d msg %d", c.name, b.Procs[0], b.Msg(0))
		}
	}
}
