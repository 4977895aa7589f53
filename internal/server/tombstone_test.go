package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSupersedePrunesExpiredTombstones: tombstones of keys superseded
// longer ago than the retired keys' TTL are dropped when the next one is
// inserted, so a node fenced over many keys does not keep one per key.
func TestSupersedePrunesExpiredTombstones(t *testing.T) {
	const ttl = 20 * time.Millisecond
	s := New(Config{Registry: obs.NewRegistry(), IdleTimeout: ttl})
	defer s.Shutdown(context.Background())
	for i := 0; i < 50; i++ {
		s.Supersede(fmt.Sprintf("key-%d", i), "node-b", "test")
	}
	time.Sleep(2 * ttl)
	last := "key-last"
	s.Supersede(last, "node-b", "test")
	s.mu.Lock()
	n, listed := len(s.retired), s.order.Len()
	s.mu.Unlock()
	if n != 1 || listed != 1 {
		t.Fatalf("table holds %d retired keys (%d in the retirement order) after the TTL and one more supersede, want 1", n, listed)
	}
	if _, rk := s.lookup(last); rk == nil || rk.owner != "node-b" {
		t.Fatalf("fresh tombstone = %+v; want owner node-b", rk)
	}
}
