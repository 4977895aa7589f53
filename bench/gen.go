package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/trace"
)

// event is one step of a feed, in the order a client streams it. It is
// kept compact, and its variable assignments are materialized only when
// it is sent: a hundred thousand pre-built maps would be most of the
// process's live heap, and the collector's cycles over them would show
// up in the program's latencies.
type event struct {
	proc int32
	msg  int32
	step int32 // the process's own event count, always assigned
	kind byte  // pir.EvInternal, pir.EvSend or pir.EvReceive
	x    int8  // value assigned to x, or -1
	tok  int8  // value assigned to tok, or -1
}

// sets fills into with the event's assignments and returns it; a nil
// into makes a fresh map, for callers whose receiver keeps the map.
func (e *event) sets(into map[string]int) map[string]int {
	if into == nil {
		into = make(map[string]int, 3)
	} else {
		clear(into)
	}
	into["step"] = int(e.step)
	if e.x >= 0 {
		into["x"] = int(e.x)
	}
	if e.tok >= 0 {
		into["tok"] = int(e.tok)
	}
	return into
}

type initVar struct {
	proc int
	name string
	val  int
}

// feed is one generated computation as a causally ordered event list.
// Every process counts its own events in the variable "step" (so
// step@Pi is monotone and ends at counts[i]), sets "x" to a small random
// value on a quarter of its events, and processes 1 and 2 pass a token
// back and forth ("tok" is 1 exactly while a process holds it), which
// makes tok@P1 == 1 && tok@P2 == 1 locally frequent and jointly
// impossible.
type feed struct {
	n      int
	inits  []initVar
	events []event
	counts []int
}

// derive maps the run seed and a label to the seed of one generator, so
// that every input of a run is a function of the seed only and inputs
// with different labels are unrelated.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// genFeed generates a feed of exactly total events over n processes. All
// messages are received before the feed ends, so the final cut has empty
// channels.
func genFeed(seed int64, n, total int) *feed {
	const (
		sendProb  = 0.2
		recvProb  = 0.7
		xProb     = 0.25
		tokenHold = 24 // own events a process keeps the token for
	)
	rng := rand.New(rand.NewSource(seed))
	f := &feed{n: n, events: make([]event, 0, total), counts: make([]int, n)}
	type pending struct {
		id    int
		token bool
	}
	inbox := make([][]pending, n)
	inFlight, nextMsg := 0, 0
	holder, held := -1, 0
	if n >= 2 {
		holder = 0
		f.inits = append(f.inits, initVar{0, "tok", 1})
	}
	emit := func(p int, kind byte, msg int, tok int8) {
		f.counts[p]++
		x := int8(-1)
		if rng.Float64() < xProb {
			x = int8(rng.Intn(8))
		}
		f.events = append(f.events, event{proc: int32(p), kind: kind, msg: int32(msg), step: int32(f.counts[p]), x: x, tok: tok})
	}
	receive := func(p int) {
		m := inbox[p][0]
		inbox[p] = inbox[p][1:]
		inFlight--
		tok := int8(-1)
		if m.token {
			tok, holder, held = 1, p, 0
		}
		emit(p, pir.EvReceive, m.id, tok)
	}
	send := func(p, to int, token bool) {
		nextMsg++
		inbox[to] = append(inbox[to], pending{nextMsg, token})
		inFlight++
		tok := int8(-1)
		if token {
			tok, holder = 0, -1
		}
		emit(p, pir.EvSend, nextMsg, tok)
	}
	for len(f.events)+inFlight < total {
		p := rng.Intn(n)
		room := total - len(f.events) - inFlight // a send takes two: itself and its receive
		switch {
		case len(inbox[p]) > 0 && rng.Float64() < recvProb:
			receive(p)
		case p == holder && held >= tokenHold && room >= 2:
			send(p, 1-p, true)
		case n >= 2 && rng.Float64() < sendProb && room >= 2:
			to := rng.Intn(n - 1)
			if to >= p {
				to++
			}
			send(p, to, false)
		default:
			if p == holder {
				held++
			}
			emit(p, pir.EvInternal, 0, -1)
		}
	}
	for inFlight > 0 {
		for p := 0; p < n; p++ {
			if len(inbox[p]) > 0 {
				receive(p)
			}
		}
	}
	return f
}

// computation builds the feed with computation.Builder, the path that is
// independent of the trace decoder and of the online monitor.
func (f *feed) computation() (*computation.Computation, error) {
	b := computation.NewBuilder(f.n)
	for _, iv := range f.inits {
		b.SetInitial(iv.proc, iv.name, iv.val)
	}
	msgs := make(map[int32]computation.Msg)
	for i := range f.events {
		e := &f.events[i]
		p := int(e.proc)
		var ev *computation.Event
		switch e.kind {
		case pir.EvInternal:
			ev = b.Internal(p)
		case pir.EvSend:
			var m computation.Msg
			ev, m = b.Send(p)
			msgs[e.msg] = m
		case pir.EvReceive:
			ev = b.Receive(p, msgs[e.msg])
			delete(msgs, e.msg)
		}
		computation.Set(ev, "step", int(e.step))
		if e.x >= 0 {
			computation.Set(ev, "x", int(e.x))
		}
		if e.tok >= 0 {
			computation.Set(ev, "tok", int(e.tok))
		}
	}
	return b.Build()
}

// traceJSON encodes comp in the trace file format hbdetect reads.
func traceJSON(comp *computation.Computation) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, comp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// stepAt is the step value process p reaches after share of its events.
func (f *feed) stepAt(p int, share float64) int {
	k := int(share * float64(f.counts[p]))
	if k < 1 {
		k = 1
	}
	return k
}

// stepConj is "every listed process has done at least share of its
// events" as a conj(...) source string; procs are 0-based. It first holds
// once about share of the feed has been streamed.
func (f *feed) stepConj(share float64, procs ...int) string {
	return f.stepPred("conj", ">=", share, procs...)
}

func (f *feed) stepPred(kind, op string, share float64, procs ...int) string {
	parts := make([]string, len(procs))
	for i, p := range procs {
		parts[i] = fmt.Sprintf("step@P%d %s %d", p+1, op, f.stepAt(p, share))
	}
	return kind + "(" + strings.Join(parts, ", ") + ")"
}

// cmpAll is kind(name@P1 op k, …, name@Pn op k) over the listed
// processes.
func cmpAll(kind, name, op string, k int, procs ...int) string {
	parts := make([]string, len(procs))
	for i, p := range procs {
		parts[i] = fmt.Sprintf("%s@P%d %s %d", name, p+1, op, k)
	}
	return kind + "(" + strings.Join(parts, ", ") + ")"
}

func allProcs(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}
