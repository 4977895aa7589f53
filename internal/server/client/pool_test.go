package client

import (
	"fmt"
	"net"
	"testing"
)

// closeConn records whether it was closed.
type closeConn struct {
	net.Conn
	closed bool
}

func (c *closeConn) Close() error {
	c.closed = true
	return nil
}

// TestIdlePoolBounds: the newest connection kept for an address is taken
// first. Past four for one address its oldest is closed, and past 64 in
// all the oldest of all, so connections to servers no longer dialed age
// out instead of filling the pool.
func TestIdlePoolBounds(t *testing.T) {
	idle.Lock()
	saved := idle.conns
	idle.conns = nil
	idle.Unlock()
	t.Cleanup(func() {
		idle.Lock()
		idle.conns = saved
		idle.Unlock()
	})

	same := make([]*closeConn, maxIdlePerAddr+1)
	for i := range same {
		same[i] = &closeConn{}
		putIdle("a", same[i])
	}
	for i, c := range same {
		if c.closed != (i == 0) {
			t.Errorf("connection %d of %d for one address: closed = %v", i, len(same), c.closed)
		}
	}
	if got := takeIdle("a"); got != same[len(same)-1] {
		t.Errorf("takeIdle returned %p, want the newest, %p", got, same[len(same)-1])
	}

	idle.conns = nil
	all := make([]*closeConn, maxIdle+1)
	for i := range all {
		all[i] = &closeConn{}
		putIdle(fmt.Sprint(i), all[i])
	}
	for i, c := range all {
		if c.closed != (i == 0) {
			t.Errorf("connection %d of %d for distinct addresses: closed = %v", i, len(all), c.closed)
		}
	}
	if takeIdle("0") != nil || takeIdle(fmt.Sprint(maxIdle)) != all[maxIdle] {
		t.Error("the oldest address should be gone and the newest kept")
	}
}
