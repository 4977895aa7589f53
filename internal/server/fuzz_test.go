package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pir"
)

// refDecodeClientFrame is the reflection decoder DecodeClientFrame
// replaced, kept as its reference.
func refDecodeClientFrame(line []byte) (ClientFrame, error) {
	var f ClientFrame
	if len(line) > MaxFrameBytes {
		return f, fmt.Errorf("server: frame exceeds %d bytes", MaxFrameBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("server: bad frame: %v", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return f, fmt.Errorf("server: trailing data after frame")
	}
	return f, nil
}

// unknownField matches the decoder's unknown-field error, capturing the
// quoted key.
var unknownField = regexp.MustCompile(`unknown field ("(?:[^"\\]|\\.)*")`)

// caseFolded reports whether err rejects a key that encoding/json would
// have case-folded onto a field of ClientFrame or Watch: the one input
// the reflection decoder accepts and DecodeClientFrame does not.
func caseFolded(err error) bool {
	m := unknownField.FindStringSubmatch(err.Error())
	if m == nil {
		return false
	}
	key, uerr := strconv.Unquote(m[1])
	if uerr != nil {
		return false
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(ClientFrame{}), reflect.TypeOf(Watch{})} {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name != key && strings.EqualFold(name, key) {
				return true
			}
		}
	}
	return false
}

// FuzzDecodeClientFrame asserts the wire decoder never panics on
// arbitrary network bytes, accepts exactly what the reflection decoder
// accepts but for case-folded keys and decodes the same frame, and that
// structural constraints (unknown fields, trailing data, frame size) are
// enforced.
func FuzzDecodeClientFrame(f *testing.F) {
	const badFrame = "server: bad frame: "
	f.Add([]byte(`{"type":"hello","processes":3,"watches":[{"op":"EF","pred":"conj(x@P1 == 1)"}]}`))
	f.Add([]byte(`{"type":"init","proc":1,"var":"x","value":7}`))
	f.Add([]byte(`{"type":"event","proc":1,"kind":"send","msg":3,"sets":{"x":1}}`))
	f.Add([]byte(`{"type":"event","proc":2,"kind":"receive","msg":3}`))
	f.Add([]byte(`{"type":"snapshot","id":1,"formula":"EF(x@P1 == 1)"}`))
	f.Add([]byte(`{"type":"bye"}`))
	f.Add([]byte(`{"type":"hello","processes":9999999999}`))
	f.Add([]byte(`{"type":"hello"}{"type":"bye"}`)) // trailing data
	f.Add([]byte(`{"type":"hello","bogus":1}`))     // unknown field
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte{0x00, 0xff, 0xfe})
	f.Add([]byte(``))
	// Resume-protocol frames and hostile sequence numbers.
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true}`))
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":42}`))
	f.Add([]byte(`{"type":"resume","session":"","seq":0}`))                          // missing session
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":-1}`))                   // negative seq
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":9223372036854775807}`))  // int64 max
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":92233720368547758070}`)) // overflows int64
	f.Add([]byte(`{"type":"event","proc":1,"kind":"internal","seq":-9223372036854775808}`))
	f.Add([]byte(`{"type":"event","proc":1,"kind":"internal","seq":9223372036854775807}`))
	f.Add([]byte(`{"type":"bye","seq":7}`))
	f.Add([]byte(`{"type":"ack","seq":3}`)) // server frame type sent by a confused client
	// Encoding negotiation and JSON-carried batch frames.
	f.Add([]byte(`{"type":"hello","processes":2,"encoding":"binary"}`))
	f.Add([]byte(`{"type":"hello","processes":2,"encoding":"morse"}`))
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":1,"encoding":"binary"}`))
	f.Add([]byte(`{"type":"batch","seq":1,"batch":{"procs":[1],"kinds":"AA==","setoff":[0,1],"sets":[{"n":"x","v":1}]}}`))
	// Durability negotiation: the hello's ack-gate mode must parse or be
	// rejected, never silently coerced.
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true,"durability":"durable"}`))
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true,"durability":"available"}`))
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true,"durability":"DURABLE"}`))
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true,"durability":"paxos"}`))
	f.Add([]byte(`{"type":"hello","processes":2,"durability":" "}`))
	// Ids that alias a small one if narrowed to a batch row's int32
	// columns unchecked: 2³²+1 → 1, -2³²+1 → 1, 2³¹ → -2³¹.
	f.Add([]byte(`{"type":"event","proc":4294967297}`))
	f.Add([]byte(`{"type":"init","proc":-4294967295,"var":"x","value":1}`))
	f.Add([]byte(`{"type":"event","proc":1,"kind":"send","msg":4294967297}`))
	f.Add([]byte(`{"type":"event","proc":2,"kind":"receive","msg":2147483648}`))
	// Duplicate keys: the later scalar wins, a later array decodes over the
	// earlier one's elements, a later object merges into the earlier one.
	f.Add([]byte(`{"type":"event","sets":{"x":1,"y":2},"sets":{"y":3,"z":null},"type":"init"}`))
	f.Add([]byte(`{"type":"event","sets":{"x":1},"sets":null,"sets":{"y":2}}`))
	f.Add([]byte(`{"type":"event","sets":{"x":1},"sets":{}}`))
	f.Add([]byte(`{"type":"hello","watches":[{"op":"EF","pred":"a"},{"op":"AG","pred":"b"},{"pred":"c"}],"watches":[{"op":"X"}],"watches":[{},{},{}]}`))
	f.Add([]byte(`{"watches":[{"op":"EF"}],"watches":[],"watches":[{}]}`))
	f.Add([]byte(`{"watches":[{"op":"EF"}],"watches":null,"watches":[null]}`))
	f.Add([]byte(`{"type":"batch","batch":{"procs":[1],"kinds":"AA==","setoff":[0,0]},"batch":{"procs":[2]}}`))
	f.Add([]byte(`{"type":"batch","batch":{"procs":[1]},"batch":null}`))
	f.Add([]byte(`{"batch":{"procs":[1]},"batch":{"Procs":[2]}}`))
	f.Add([]byte(`{"type":"batch","batch":{"nope":1}}`))
	f.Add([]byte(`{"type":"batch","batch":[1]}`))
	// null in every field.
	f.Add([]byte(`{"type":null,"processes":null,"watches":null,"resumable":null,"bounded":null,"encoding":null,"durability":null,"session":null,"seq":null,"proc":null,"var":null,"value":null,"kind":null,"msg":null,"sets":null,"id":null,"formula":null,"batch":null}`))
	f.Add([]byte(`{"type":"hello","processes":2,"processes":null,"watches":[{"op":null,"pred":null}],"sets":{"x":null}}`))
	// Escapes: every short form, \u forms, surrogate pairs and lone halves,
	// invalid UTF-8, and escaped keys.
	f.Add([]byte(`{"type":"ev\u0065nt","var":"\"\\\/\b\f\n\r\t","kind":"\ud83d\ude00","session":"\ud800","formula":"\udc00\u0041\ud800\ud800"}`))
	f.Add([]byte("{\"type\":\"\xff\xfe\",\"sets\":{\"\xc3\x28\":1,\"\\u00e9\":2}}"))
	f.Add([]byte(`{"\u0074ype":"bye","formula":"\u2028\u2029<>&"}`))
	f.Add([]byte(`{"type":"bye","formula":"\u12"}`))
	f.Add([]byte(`{"type":"bye","formula":"\x41"}`))
	// Whitespace between every token, and around the value.
	f.Add([]byte(" \t\r\n{ \"type\" :\t\"event\" ,\n\"sets\" : { \"x\" : 1 , \"y\":-2 } , \"watches\" : [ { \"op\" : \"EF\" } ] } \r\n"))
	f.Add([]byte(" null "))
	// Integer bounds and non-integers.
	f.Add([]byte(`{"seq":9223372036854775807,"proc":-9223372036854775808,"value":-0}`))
	f.Add([]byte(`{"seq":9223372036854775808}`))
	f.Add([]byte(`{"proc":-9223372036854775809}`))
	f.Add([]byte(`{"proc":1.0}`))
	f.Add([]byte(`{"proc":1e3}`))
	f.Add([]byte(`{"proc":01}`))
	f.Add([]byte(`{"resumable":1}`))
	f.Add([]byte(`{"resumable":true,"bounded":false,"bounded":null}`))
	// Keys of the wrong case: encoding/json folds them, the decoder does not.
	f.Add([]byte(`{"Type":"hello","processes":2}`))
	f.Add([]byte(`{"type":"hello","watches":[{"OP":"EF","pred":"x"}]}`))
	f.Add([]byte(`{"type":"event","\u212aind":"send"}`))
	f.Add([]byte(`{"TYpe":""}0`))

	f.Fuzz(func(t *testing.T, line []byte) {
		fr, err := DecodeClientFrame(line)
		ref, refErr := refDecodeClientFrame(line)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted %q, which encoding/json rejects: %v", line, refErr)
		case err != nil && refErr == nil && !caseFolded(err):
			t.Fatalf("rejected %q, which encoding/json accepts as %+v: %v", line, ref, err)
		case err != nil && refErr != nil && !caseFolded(err) && strings.HasPrefix(err.Error(), badFrame) != strings.HasPrefix(refErr.Error(), badFrame):
			t.Fatalf("rejected %q as %q, encoding/json as %q", line, err, refErr)
		case err != nil:
			return
		}
		if !reflect.DeepEqual(fr, ref) {
			t.Fatalf("decoded %q as\n %#v\nencoding/json decodes\n %#v", line, fr, ref)
		}
		if fr.Type == FrameInit || fr.Type == FrameEvent {
			// The one-row rewrite either refuses the frame or carries its
			// ids exactly.
			var row pir.Batch
			if AppendRow(&row, &fr, MaxProcesses) == "" {
				msg := fr.Msg
				if fr.Kind != "send" && fr.Kind != "receive" {
					msg = 0 // ignored on the other kinds, as it always was
				}
				if int(row.Procs[0]) != fr.Proc || row.Msg(0) != msg || row.Validate() != nil {
					t.Fatalf("row (proc %d, msg %d) for frame (proc %d, msg %d)", row.Procs[0], row.Msg(0), fr.Proc, fr.Msg)
				}
			}
		}
		if fr.Type == FrameHello {
			if ValidateHello(fr) == nil {
				if fr.Processes < 1 || fr.Processes > MaxProcesses {
					t.Fatalf("ValidateHello accepted %d processes", fr.Processes)
				}
				if len(fr.Watches) > MaxWatches {
					t.Fatalf("ValidateHello accepted %d watches", len(fr.Watches))
				}
				switch fr.Durability {
				case "", "available", "durable":
				default:
					t.Fatalf("ValidateHello accepted durability %q", fr.Durability)
				}
			}
		}
		if fr.Type == FrameResume {
			if ValidateResume(fr) == nil {
				if fr.Session == "" {
					t.Fatal("ValidateResume accepted an empty session id")
				}
				if fr.Seq < 0 {
					t.Fatalf("ValidateResume accepted negative seq %d", fr.Seq)
				}
			}
		}
	})
}

// fuzzServer starts the server a fuzz target's connections hit, one per
// target and process, which keeps iterations cheap; the target's end
// shuts it down.
func fuzzServer(f *testing.F) string {
	srv := New(Config{Registry: obs.NewRegistry(), ReadTimeout: time.Second, IdleTimeout: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends when Shutdown closes the listener
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // the target is over
	})
	return ln.Addr().String()
}

// FuzzFirstFrame throws arbitrary bytes at a live server as the opening
// frame of a fresh connection — hello, resume-before-hello, hostile
// seqs, garbage — and asserts the server answers (or closes) without
// wedging and stays up for the next connection.
func FuzzFirstFrame(f *testing.F) {
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true}`))
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":0}`))  // resume before any hello
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":-5}`)) // negative seq
	f.Add([]byte(`{"type":"resume","session":"s-0001","seq":9223372036854775807}`))
	f.Add([]byte(`{"type":"event","proc":1,"kind":"internal"}`)) // event before hello
	f.Add([]byte(`{"type":"bye"}`))
	f.Add([]byte(`{"type":"resume"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{FrameMagic, BinBatch, 0x02, 0x02, 0x00}) // binary frame before any handshake
	// Replication-protocol openers on the shared listener: a standalone
	// server has no takeover hook, so these must be cleanly rejected as
	// unknown client frames, and hostile epochs must never wedge triage.
	f.Add([]byte(`{"type":"repl-hello","from":"127.0.0.1:1"}`))
	f.Add([]byte(`{"type":"repl-open","session":"k","epoch":-1}`))
	f.Add([]byte(`{"type":"repl-open","session":"k","epoch":9223372036854775807}`))
	f.Add([]byte{FrameMagic, BinRepl, 0x05, 0x01, 'k', 0x01, 0x01, 0x00}) // a replication data frame
	f.Add([]byte(`{"type":"repl-handoff","session":"k","epoch":2,"seq":0}`))
	f.Add([]byte(`{"type":"repl-reject","session":"k","code":"stale-epoch","epoch":3}`))
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true,"durability":"durable"}`))
	f.Add([]byte(`{"type":"hello","processes":2,"resumable":true,"durability":"quorum"}`))
	// Out-of-int32 ids as an opener (no session yet: must be refused as a
	// non-handshake frame, never reach a batch row).
	f.Add([]byte(`{"type":"event","proc":4294967297}`))
	f.Add([]byte(`{"type":"event","proc":1,"kind":"send","msg":-4294967295}`))
	addr := fuzzServer(f)

	f.Fuzz(func(t *testing.T, line []byte) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Skip("server saturated") // accept backlog under fuzz load, not a bug
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		conn.Write(append(line, '\n')) //nolint:errcheck // server may reject early
		// Whatever we sent, the connection must terminate promptly: a
		// frame response, a close, or the read timeout server-side.
		// Drain with the same bounded scanner the server uses, so the
		// harness and the implementation can never disagree on the frame
		// size limit.
		sc := NewFrameScanner(conn)
		for sc.Scan() {
			// drain until the server closes or the deadline trips
		}
	})
}

// FuzzBinaryFrames drives arbitrary bytes through the exact pipeline a
// binary connection uses — the shared bounded frame scanner, the seq
// header split, the batch body decoder with a persistent interning
// table — and asserts the invariant the ingest path relies on: nothing
// panics, the scanner never yields an oversized frame, and any batch
// that decodes also validates and carries no wrapped (negative) proc. Seeds cover a well-formed batched
// stream, truncation at both frame and body granularity, hostile
// declared lengths, and NDJSON/binary mixed streams.
func FuzzBinaryFrames(f *testing.F) {
	valid := func() []byte {
		b := pir.GetBatch()
		b.AddInit(1, "x", 1)
		b.AddEvent(1, pir.EvSend, 3, map[string]int{"x": 2, "y": -1})
		b.AddEvent(2, pir.EvReceive, 3, nil)
		b.AddEvent(2, pir.EvInternal, 0, map[string]int{"y": 7})
		var vt pir.VarTable
		payload := pir.AppendBatch(nil, 1, b, &vt)
		frame := AppendBinaryFrame(nil, BinBatch, payload)
		b2 := pir.GetBatch()
		b2.AddEvent(1, pir.EvInternal, 0, map[string]int{"x": 3}) // references the interned "x"
		return AppendBinaryFrame(frame, BinBatch, pir.AppendBatch(nil, 2, b2, &vt))
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                                // truncated mid-frame
	f.Add(valid[:3])                                                                           // truncated header
	f.Add(append([]byte(`{"type":"hello","processes":2,"encoding":"binary"}`+"\n"), valid...)) // mixed stream
	f.Add(append(append([]byte{}, valid...), '\n'))                                            // binary then a blank NDJSON line
	f.Add([]byte{FrameMagic})
	f.Add([]byte{FrameMagic, BinBatch})
	f.Add([]byte{FrameMagic, BinBatch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})             // huge declared length
	f.Add([]byte{FrameMagic, BinBatch, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // overlong uvarint
	f.Add([]byte{FrameMagic, 0x7f, 0x00})                                                                       // unknown frame type
	f.Add(binary.AppendUvarint([]byte{FrameMagic, BinBatch}, MaxFrameBytes+1))
	f.Add([]byte{FrameMagic, BinBatch, 0x03, 0x01, 0xff, 0x01}) // seq 1, garbage body
	// Ids that would wrap or alias if narrowed to the int32 columns
	// unchecked: one internal event on proc 2³¹, one send of msg 2³²+1.
	f.Add([]byte{FrameMagic, BinBatch, 0x08, 0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00})
	f.Add([]byte{FrameMagic, BinBatch, 0x09, 0x01, 0x01, 0x05, 0x82, 0x80, 0x80, 0x80, 0x20, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewFrameScanner(bytes.NewReader(data))
		var vt pir.VarTable
		for sc.Scan() {
			if len(sc.Bytes()) > MaxFrameBytes {
				t.Fatalf("scanner yielded %d bytes, cap %d", len(sc.Bytes()), MaxFrameBytes)
			}
			if !sc.Binary() || sc.BinaryType() != BinBatch {
				continue
			}
			seq, body, err := pir.BatchSeq(sc.Bytes())
			if err != nil {
				continue
			}
			if seq < 0 {
				t.Fatalf("BatchSeq returned negative seq %d", seq)
			}
			b := pir.GetBatch()
			if err := b.DecodeBody(body, &vt); err != nil {
				b.Recycle()
				continue
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("decoded batch fails Validate: %v", err)
			}
			for i, p := range b.Procs {
				if p < 0 {
					t.Fatalf("event %d decoded with proc %d: the head was narrowed unchecked", i, p)
				}
			}
			b.Recycle()
		}
	})
}
