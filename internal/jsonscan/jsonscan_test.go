package jsonscan

import (
	"strconv"
	"strings"
	"testing"
)

// TestInternBounded: a scanner reused across inputs, as the server's
// pooled frame decoders are, retains at most maxInterned strings of at
// most maxInternLen bytes however many distinct names it is fed.
func TestInternBounded(t *testing.T) {
	var s Scanner
	long := []byte(strings.Repeat("x", maxInternLen+1))
	if s.Intern(long); len(s.names) != 0 {
		t.Fatalf("a %d-byte string was interned", len(long))
	}
	for i := 0; i < 3*maxInterned; i++ {
		name := "v" + strconv.Itoa(i)
		if got := s.Intern([]byte(name)); got != name {
			t.Fatalf("Intern(%q) = %q", name, got)
		}
		if len(s.names) > maxInterned {
			t.Fatalf("%d strings interned, bound %d", len(s.names), maxInterned)
		}
	}
	if a, b := s.Intern([]byte("step")), s.Intern([]byte("step")); a != "step" || b != "step" {
		t.Fatalf("Intern(step) = %q, %q", a, b)
	}
}
