package faults

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Proxy is a flaky TCP proxy for the server's wire protocol: it
// forwards complete frames — NDJSON lines or length-prefixed binary
// frames — between client and server, making one seeded fault decision
// per frame per direction. Unlike Conn it can corrupt both directions of
// a dialog, which is what a chaos test needs — acks and verdict pushes
// are as faultable as event frames.
//
// Frames are read with server.FrameScanner, the same bounded reader the
// peers use, and forwarded re-framed: a binary frame by
// server.AppendBinaryFrame, a line with a "\n" terminator. For the frames
// the peers send that is the bytes they sent. It differs from forwarding
// raw bytes in three cases: a frame over server.MaxFrameBytes (either
// encoding) is not forwarded but severs the connection; an unterminated
// last line is forwarded with a terminator before the sender's EOF severs
// the connection; and a "\r\n" terminator or an overlong length prefix is
// forwarded in its canonical form.
type Proxy struct {
	ln     net.Listener
	target string
	up     Config // client → server faults
	down   Config // server → client faults
	n      atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	wg sync.WaitGroup
}

// NewProxy starts a proxy on a fresh loopback port forwarding to
// target, faulting both directions with cfg. Close stops it.
func NewProxy(target string, cfg Config) (*Proxy, error) {
	return NewProxyAsym(target, cfg, cfg)
}

// NewProxyAsym starts a proxy with separate fault configs per direction
// (up = client → server, down = server → client). Chaos tests use this
// to confine silent drops to the upstream leg, where sequence numbers
// detect them; a frame silently dropped downstream on an otherwise
// healthy connection is undetectable by design — only connection loss
// triggers the replay that redelivers recorded frames.
func NewProxyAsym(target string, up, down Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, up: up, down: down, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's dialable address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, severs every proxied connection, and waits for
// the pump goroutines to exit.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// track registers a live conn for Close, unless the proxy is already
// closing (then the conn is closed immediately).
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cli, err := p.ln.Accept()
		if err != nil {
			return
		}
		srv, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			cli.Close()
			continue
		}
		if !p.track(cli) || !p.track(srv) {
			cli.Close()
			srv.Close()
			return
		}
		id := p.n.Add(1)
		// Each direction gets its own decision stream; severing either
		// leg kills both, like a real connection reset.
		p.wg.Add(2)
		go p.pump(cli, srv, newRoller(p.up, 2*id))
		go p.pump(srv, cli, newRoller(p.down, 2*id+1))
	}
}

// pump forwards frames src → dst, one fault decision per frame, so
// drop/dup/partial faults act on protocol units in either encoding (a
// Partial cuts a binary frame at an arbitrary byte offset, truncating its
// payload mid-event). Any fault that severs the stream (reset, partial)
// closes both legs so the peerwise failure is symmetric; so do src EOF
// and a frame the scanner refuses (oversized or truncated).
func (p *Proxy) pump(src, dst net.Conn, r *roller) {
	defer p.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.untrack(src)
		p.untrack(dst)
	}()
	sc := server.NewFrameScanner(src)
	var frame []byte
	for sc.Scan() {
		if sc.Binary() {
			frame = server.AppendBinaryFrame(frame[:0], sc.BinaryType(), sc.Bytes())
		} else {
			frame = append(append(frame[:0], sc.Bytes()...), '\n')
		}
		switch r.roll() {
		case actReset:
			return
		case actPartial:
			dst.Write(frame[:r.cut(len(frame))]) //nolint:errcheck // severing anyway
			return
		case actDrop:
			continue
		case actDup:
			if _, err := dst.Write(frame); err != nil {
				return
			}
			if _, err := dst.Write(frame); err != nil {
				return
			}
		case actDelay:
			time.Sleep(r.delay())
			fallthrough
		default:
			if _, err := dst.Write(frame); err != nil {
				return
			}
		}
	}
}

// String describes the proxy for logs.
func (p *Proxy) String() string {
	return fmt.Sprintf("faults.Proxy(%s -> %s, seed=%d)", p.Addr(), p.target, p.up.Seed)
}
