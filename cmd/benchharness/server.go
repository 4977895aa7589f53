package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sim"
)

// runServer measures the networked detection service over loopback:
// ingest throughput (events/s through TCP + JSON + the session queue, vs
// the in-process monitor as the no-network baseline) and verdict push
// latency — the wall-clock gap between the client writing the
// determining event and the verdict frame arriving back.
func runServer() {
	fmt.Println("hbserver over loopback TCP: streamed EF watch vs in-process monitor")
	fmt.Printf("%8s %12s %14s %14s %16s\n", "|E|", "ingest", "events/s", "in-process", "verdict latency")
	for _, events := range []int{200, 1000, 5000, 20000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 21)
		pred := "conj(x0@P1 >= 2, x0@P2 >= 2, x0@P3 >= 2)"

		// Baseline: the same watch fed in-process, no network, no JSON.
		mon := online.NewMonitor(comp.N())
		mon.WatchEF(
			online.Cmp(0, "x0", ">=", 2),
			online.Cmp(1, "x0", ">=", 2),
			online.Cmp(2, "x0", ">=", 2),
		)
		localStart := time.Now()
		feedAll(comp, mon, nil)
		localDt := time.Since(localStart)

		srv := server.New(server.Config{Registry: obs.NewRegistry()})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		go srv.Serve(ln) //nolint:errcheck // closed by Shutdown
		sess, err := client.Dial(ln.Addr().String(), client.Config{
			Processes: comp.N(),
			Watches:   []server.Watch{{Op: "EF", Pred: pred}},
		})
		if err != nil {
			panic(err)
		}

		// Stamp each verdict frame as it arrives; with sendTimes below,
		// latency = determining event written → verdict frame decoded,
		// both measured at the client.
		type stamped struct {
			fr server.ServerFrame
			at time.Time
		}
		arrivals := make(chan stamped, 8)
		go func() {
			defer close(arrivals)
			for {
				select {
				case fr := <-sess.Verdicts():
					if fr.Type == server.FrameVerdict {
						arrivals <- stamped{fr, time.Now()}
					}
				case <-sess.Done():
					return
				}
			}
		}()

		// Stream the linearization, stamping each event's write time so
		// the verdict frame's Event index recovers when its determining
		// event left the client.
		sendTimes := make([]time.Time, 0, comp.TotalEvents())
		start := time.Now()
		streamComputation(comp, sess, &sendTimes)
		if _, err := sess.Snapshot("EF(" + pred + ")"); err != nil { // barrier: all applied
			panic(err)
		}
		dt := time.Since(start)

		gb, err := sess.Close()
		if err != nil {
			panic(err)
		}
		if gb.Events != comp.TotalEvents() {
			panic(fmt.Sprintf("server accounting: %d events (want %d)", gb.Events, comp.TotalEvents()))
		}
		verdictLat := time.Duration(-1)
		for v := range arrivals {
			if v.fr.Event >= 1 && v.fr.Event <= len(sendTimes) {
				verdictLat = v.at.Sub(sendTimes[v.fr.Event-1])
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck
		cancel()

		rate := float64(events) / dt.Seconds()
		lat := "no verdict"
		if verdictLat >= 0 {
			lat = verdictLat.Round(time.Microsecond).String()
		}
		fmt.Printf("%8d %12s %14.0f %14s %16s\n",
			events, dt.Round(time.Microsecond), rate, localDt.Round(time.Microsecond), lat)
		emit("server", "ingest", map[string]any{
			"events": events, "ingest_ns": dt.Nanoseconds(),
			"events_per_sec": rate, "inprocess_ns": localDt.Nanoseconds(),
			"verdict_latency_ns": verdictLat.Nanoseconds(),
		})
	}
}

// streamComputation replays comp's linearization into a wire session,
// recording the write time of each event.
func streamComputation(comp *computation.Computation, sess *client.Session, sendTimes *[]time.Time) {
	for p := 0; p < comp.N(); p++ {
		for _, name := range comp.Vars(p) {
			if v, _ := comp.Value(p, 0, name); v != 0 {
				sess.SetInitial(p, name, v)
			}
		}
	}
	for _, e := range comp.Linearization() {
		p, sets := e.Proc, setsOf(comp, e)
		*sendTimes = append(*sendTimes, time.Now())
		switch e.Kind {
		case computation.Internal:
			sess.Internal(p, sets)
		case computation.Send:
			sess.SendMsg(p, e.Msg, sets)
		case computation.Receive:
			sess.Receive(p, e.Msg, sets)
		}
	}
}
