package client_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// rejectMany streams n events on a process outside the session's range,
// each of which the server answers with one recorded error frame, and
// waits until the client has latched want frames in all.
func rejectMany(t *testing.T, sess *client.Session, n, want int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sess.Internal(5, nil)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sess.Latched()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("latched %d frames, want %d", len(sess.Latched()), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// receive takes n frames from ch, failing if one is not there within a
// second.
func receive(t *testing.T, ch <-chan server.ServerFrame, n int) []server.ServerFrame {
	t.Helper()
	out := make([]server.ServerFrame, 0, n)
	for len(out) < n {
		select {
		case fr := <-ch:
			out = append(out, fr)
		case <-time.After(time.Second):
			t.Fatalf("received %d frames, want %d", len(out), n)
		}
	}
	return out
}

// TestVerdictsContract pins what Verdicts delivers now that its channel
// is made by the first call: a consumer present from Dial sees every
// frame; a first call after 300 frames finds exactly frames 1–256 in
// order and then the live ones; a consumer 256 frames behind has later
// frames shed, while Latched keeps everything.
func TestVerdictsContract(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	dial := func() *client.Session {
		sess, err := client.Dial(addr, client.Config{Processes: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() }) //nolint:errcheck // the test is over
		return sess
	}

	t.Run("consumer from dial", func(t *testing.T) {
		sess := dial()
		ch := sess.Verdicts()
		var got []server.ServerFrame
		for round := 1; round <= 3; round++ {
			// Rounds of 100 keep the consumer well inside the buffer.
			rejectMany(t, sess, 100, 100*round)
			got = append(got, receive(t, ch, 100)...)
		}
		if want := sess.Latched(); !reflect.DeepEqual(got, want) {
			t.Fatalf("consumer saw %d frames, Latched has %d, or they differ", len(got), len(want))
		}
	})

	t.Run("first call after 300", func(t *testing.T) {
		sess := dial()
		rejectMany(t, sess, 300, 300)
		ch := sess.Verdicts()
		if sess.Verdicts() != ch {
			t.Fatal("a second call returned another channel")
		}
		latched := sess.Latched()
		if got := receive(t, ch, 256); !reflect.DeepEqual(got, latched[:256]) {
			t.Fatal("the first 256 frames on the channel are not frames 1–256 of Latched")
		}
		if n := len(ch); n != 0 {
			t.Fatalf("%d frames past the first 256 were kept", n)
		}
		rejectMany(t, sess, 10, 310)
		if got := receive(t, ch, 10); !reflect.DeepEqual(got, sess.Latched()[300:310]) {
			t.Fatal("the live frames after the first call differ from Latched")
		}

		// Nobody consumes now: the channel fills to 256 and the rest are
		// shed, while Latched keeps them.
		rejectMany(t, sess, 300, 610)
		latched = sess.Latched()
		if got := receive(t, ch, 256); !reflect.DeepEqual(got, latched[310:566]) {
			t.Fatal("a backlogged channel does not hold the 256 frames after the last read")
		}
		select {
		case fr := <-ch:
			t.Fatalf("frame idx %d was kept past a full channel", fr.Idx)
		default:
		}
		if latched[len(latched)-1].Idx != 610 {
			t.Fatalf("Latched ends at idx %d, want 610", latched[len(latched)-1].Idx)
		}
	})
}
