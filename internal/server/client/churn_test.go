package client_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// churnConfig is the shape of an offline-sliced serving session: eight
// processes, four watches, the binary encoding in batches of 64.
var churnConfig = client.Config{
	Processes: 8,
	Watches: []server.Watch{
		{Op: "EF", Pred: "conj(x@P1 == 30, x@P2 == 31)"},
		{Op: "EF", Pred: "conj(x@P7 == 90, x@P8 == 91)"},
		{Op: "EF", Pred: "conj(x@P3 == 1000)"},
		{Op: "AG", Pred: "conj(x@P1 >= 0, x@P5 >= 0)"},
	},
	Encoding:  server.EncodingBinary,
	BatchSize: 64,
}

// churnEvents is how many events feedSession streams.
const churnEvents = 96

// feedSession streams churnEvents events into sess, in rounds of three on
// a rotating process p: a send from p, its receive on p+1, and an
// internal event on p+2 that sets x to the event's index.
func feedSession(sess *client.Session) {
	sets := map[string]int{"x": 0}
	for i := 0; i < churnEvents; i += 3 {
		p := i / 3 % 8
		sets["x"] = i
		msg := sess.Send(p, sets)
		sets["x"] = i + 1
		sess.Receive((p+1)%8, msg, sets)
		sets["x"] = i + 2
		sess.Internal((p+2)%8, sets)
	}
}

// BenchmarkDialChurn is the life of one offline-sliced serving session
// over loopback: dial, 96 binary events, Flush, bye and goodbye, against
// a server that Serves throughout. ns/op, B/op and allocs/op are per
// session, client and server together. pooled sends each hello on the
// connection the last session's goodbye left in the idle pool; fresh
// dials through Config.Dial, which bypasses the pool, and so pays a TCP
// connect and close per session.
func BenchmarkDialChurn(b *testing.B) {
	_, addr := startServer(b, server.Config{})
	fresh := churnConfig
	fresh.Dial = func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 5*time.Second) }
	b.Run("pooled", func(b *testing.B) { dialChurn(b, addr, churnConfig) })
	b.Run("fresh", func(b *testing.B) { dialChurn(b, addr, fresh) })
}

func dialChurn(b *testing.B, addr string, cfg client.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := client.Dial(addr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		feedSession(sess)
		if err := sess.Flush(); err != nil {
			b.Fatal(err)
		}
		gb, err := sess.Close()
		if err != nil {
			b.Fatal(err)
		}
		if gb.Events != churnEvents {
			b.Fatalf("goodbye counts %d events, want %d", gb.Events, churnEvents)
		}
	}
}
