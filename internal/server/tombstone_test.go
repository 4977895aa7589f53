package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSupersedePrunesExpiredTombstones: tombstones of keys superseded
// longer ago than the morgue's TTL are dropped when the next one is
// inserted, so a node fenced over many keys does not keep one per key.
func TestSupersedePrunesExpiredTombstones(t *testing.T) {
	const ttl = 20 * time.Millisecond
	s := New(Config{Registry: obs.NewRegistry(), IdleTimeout: ttl})
	defer s.Shutdown(context.Background())
	last := "key-last"
	sh := s.shard(last)
	for i := 0; len(sh.tombstones) < 50; i++ {
		if id := fmt.Sprintf("key-%d", i); s.shard(id) == sh {
			s.Supersede(id, "node-b", "test")
		}
	}
	time.Sleep(2 * ttl)
	s.Supersede(last, "node-b", "test")
	sh.mu.Lock()
	n := len(sh.tombstones)
	sh.mu.Unlock()
	if n != 1 {
		t.Fatalf("shard holds %d tombstones after the TTL and one more supersede, want 1", n)
	}
	if tb, ok := s.lookupTombstone(last); !ok || tb.owner != "node-b" {
		t.Fatalf("fresh tombstone = %+v, %v; want owner node-b", tb, ok)
	}
}
