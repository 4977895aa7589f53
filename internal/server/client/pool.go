package client

import (
	"net"
	"slices"
	"sync"
)

// Bounds of the idle pool: connections kept per address, and in all.
const (
	maxIdlePerAddr = 4
	maxIdle        = 64
)

// idle is the process-wide pool of connections whose session ended in a
// clean goodbye, with the address they were dialed at. The server writes
// nothing on such a connection until it answers the next handshake, so
// Dial's first attempt sends its hello on one of them instead of
// dialing.
var idle struct {
	sync.Mutex
	conns []idleConn // oldest first
}

type idleConn struct {
	addr string
	conn net.Conn
}

// putIdle keeps conn for the next Dial to addr. Over a bound, the oldest
// connection kept for addr, or else the oldest of all, is closed, so
// connections to servers no longer dialed age out instead of filling the
// pool.
func putIdle(addr string, conn net.Conn) {
	idle.Lock()
	oldest, n := -1, 0
	for i, c := range idle.conns {
		if c.addr == addr {
			if n == 0 {
				oldest = i
			}
			n++
		}
	}
	var evicted net.Conn
	if n >= maxIdlePerAddr || len(idle.conns) >= maxIdle {
		if n < maxIdlePerAddr {
			oldest = 0
		}
		evicted = idle.conns[oldest].conn
		idle.conns = slices.Delete(idle.conns, oldest, oldest+1)
	}
	idle.conns = append(idle.conns, idleConn{addr, conn})
	idle.Unlock()
	if evicted != nil {
		evicted.Close()
	}
}

// takeIdle returns the newest connection kept for addr, or nil.
func takeIdle(addr string) net.Conn {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.conns) - 1; i >= 0; i-- {
		if c := idle.conns[i]; c.addr == addr {
			idle.conns = slices.Delete(idle.conns, i, i+1)
			return c.conn
		}
	}
	return nil
}
