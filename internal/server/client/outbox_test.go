package client

import (
	"testing"

	"repro/internal/pir"
	"repro/internal/server"
)

// TestPruneOutboxInPlace: an ack drops exactly the frames it covers from
// the head of the outbox, keeps the rest in order, releases the dropped
// frames' batches (the vacated tail of the backing array is cleared), and
// allocates nothing — it runs once per ack on the reader goroutine, under
// the lock every writer needs.
func TestPruneOutboxInPlace(t *testing.T) {
	fill := func(s *Session, n int) {
		s.outbox = s.outbox[:0]
		for seq := int64(1); seq <= int64(n); seq++ {
			s.outbox = append(s.outbox, server.ClientFrame{Type: server.FrameBatch, Seq: seq, Batch: new(pir.Batch)})
		}
	}
	s := &Session{}
	fill(s, 8)
	backing := s.outbox[:8]

	s.pruneOutboxLocked(0) // nothing acked
	s.pruneOutboxLocked(3)
	if len(s.outbox) != 5 {
		t.Fatalf("outbox holds %d frames after ack 3 of 8, want 5", len(s.outbox))
	}
	for i, f := range s.outbox {
		if f.Seq != int64(4+i) || f.Batch == nil {
			t.Fatalf("outbox[%d] = seq %d (batch %v), want seq %d with its batch", i, f.Seq, f.Batch, 4+i)
		}
	}
	for i, f := range backing[5:] {
		if f.Batch != nil || f.Seq != 0 {
			t.Fatalf("vacated slot %d still holds seq %d: the acked batch is not released", 5+i, f.Seq)
		}
	}
	s.pruneOutboxLocked(3) // a repeated ack changes nothing
	if len(s.outbox) != 5 || s.outbox[0].Seq != 4 {
		t.Fatalf("repeated ack changed the outbox: %d frames from seq %d", len(s.outbox), s.outbox[0].Seq)
	}
	s.pruneOutboxLocked(100)
	if len(s.outbox) != 0 {
		t.Fatalf("outbox holds %d frames after everything was acked", len(s.outbox))
	}
	for i, f := range backing {
		if f.Batch != nil {
			t.Fatalf("slot %d keeps its batch after everything was acked", i)
		}
	}

	fill(s, 1024)
	acked := int64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		acked += 5
		s.pruneOutboxLocked(acked)
	}); allocs != 0 {
		t.Fatalf("pruneOutboxLocked allocates %.1f times per ack, want 0", allocs)
	}
}
