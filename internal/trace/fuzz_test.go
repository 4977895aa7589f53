package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
)

// refDecode is the reflection decoder Decode replaced, kept as its
// reference: encoding/json into a File, then Build.
func refDecode(input []byte) (*computation.Computation, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(input))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	return Build(f)
}

// refEncode is the reflection encoder Encode replaced: json.Encoder over
// the File of the lowest-process-first linearization, found here the way
// it always was, by testing EnabledEvent at every step.
func refEncode(comp *computation.Computation) []byte {
	f := File{Version: Version, Processes: comp.N()}
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			if v, _ := comp.Value(i, 0, name); v != 0 {
				f.Initial = append(f.Initial, InitVar{Proc: i + 1, Var: name, Value: v})
			}
		}
	}
	cut := comp.InitialCut()
	for len(f.Events) < comp.TotalEvents() {
		i := 0
		for !comp.EnabledEvent(cut, i) {
			i++
		}
		cut[i]++
		e := comp.Event(i, cut[i])
		rec := EventRec{Proc: i + 1, Kind: e.Kind.String(), Label: e.Label}
		if e.Kind != computation.Internal {
			rec.Msg = e.Msg
		}
		for _, a := range comp.AppendAssignments(nil, e) {
			if rec.Sets == nil {
				rec.Sets = map[string]int{}
			}
			rec.Sets[a.Name] = a.Value
		}
		f.Events = append(f.Events, rec)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

var (
	topFields   = []string{"version", "processes", "initial", "events"}
	initFields  = []string{"proc", "var", "value"}
	eventFields = []string{"proc", "kind", "msg", "label", "sets"}
)

// narrowed reports whether input falls under one of Decode's two
// deliberate departures from encoding/json: a key that names a field only
// case-insensitively, or non-whitespace after the top-level value.
func narrowed(input []byte) bool {
	if hit, _ := folded(json.NewDecoder(bytes.NewReader(input)), topFields); hit {
		return true
	}
	var v json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(input))
	if dec.Decode(&v) != nil {
		return false
	}
	return len(bytes.TrimLeft(input[dec.InputOffset():], " \t\r\n")) > 0
}

// folded walks the next value, reporting whether an object in a position
// with the given fields has a key equal to one of them only under case
// folding. Every key is seen, duplicates included; the walk stops at the
// first syntax error.
func folded(dec *json.Decoder, fields []string) (bool, error) {
	tok, err := dec.Token()
	if err != nil || (tok != json.Delim('[') && tok != json.Delim('{')) {
		return false, err
	}
	for dec.More() {
		sub := fields
		if tok == json.Delim('{') {
			t, err := dec.Token()
			if err != nil {
				return false, err
			}
			key := t.(string)
			if !slices.Contains(fields, key) && slices.ContainsFunc(fields, func(f string) bool { return strings.EqualFold(f, key) }) {
				return true, nil
			}
			sub = nil
			if slices.Equal(fields, topFields) {
				switch key {
				case "initial":
					sub = initFields
				case "events":
					sub = eventFields
				}
			}
		}
		if hit, err := folded(dec, sub); hit || err != nil {
			return hit, err
		}
	}
	_, err = dec.Token() // the closing delimiter
	return false, err
}

// FuzzDecode holds Decode to encoding/json's contract: on every input
// both accept or both reject — or, under one of the two narrowings, Decode
// rejects — and accepted inputs give the same computation. An accepted
// computation then encodes to exactly the reflection encoder's bytes,
// which decode and encode again to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(string(refEncode(sim.Fig4())))
	f.Add(string(refEncode(sim.TokenRingMutex(3, 1))))
	f.Add(`{"version":1,"processes":2,"events":[{"proc":1,"kind":"send","msg":1},{"proc":2,"kind":"receive","msg":1}]}`)
	f.Add(`{"version":1,"processes":1,"events":[]}`)
	f.Add(`{"version":1,"processes":-1}`)
	f.Add(`{`)
	f.Add(`[]`)
	f.Add("\x00\x01\x02")
	// Hostile inputs: the decoder feeds untrusted network bytes (hbserver),
	// so resource-exhaustion headers must error before allocating.
	f.Add(`{"version":1,"processes":1000000000,"events":[]}`)
	f.Add(`{"version":1,"processes":9223372036854775807,"events":[]}`)
	f.Add(`{"version":1,"processes":2,"events":[{"proc":1,"kind":"send","msg":9223372036854775807}]}`)
	f.Add(`{"version":1,"processes":1,"initial":[{"proc":1,"var":"` + strings.Repeat("x", 1<<10) + `","value":1}],"events":[]}`)
	f.Add(`{"version":1.5,"processes":1,"events":[]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"kind":"internal","sets":{"x":1e309}}]}`)
	f.Add(`{"version":1,"processes":1,"events":null}`)
	// Events before the header, and a header key after streamed events.
	f.Add(`{"events":[{"proc":2,"kind":"send","msg":5},{"proc":1,"kind":"receive","msg":5}],"processes":2,"version":1}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":2}],"processes":2}`)
	f.Add(`{"version":1,"processes":2,"events":[{"proc":1}],"version":2}`)
	// Duplicate keys: a later array decodes into the earlier one's elements.
	f.Add(`{"version":1,"processes":2,"events":[{"proc":1,"kind":"send","msg":1},{"proc":2}],"events":[{"proc":1},null]}`)
	f.Add(`{"version":1,"processes":2,"events":[{"proc":1,"kind":"send","msg":1,"kind":null,"proc":2}]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"sets":{"x":1,"x":2},"sets":{"y":3}}]}`)
	f.Add(`{"version":1,"processes":1,"initial":[{"proc":1,"var":"x","value":3}],"initial":[{"value":4}],"events":[]}`)
	// null for every field.
	f.Add(`{"version":1,"processes":1,"initial":null,"events":[{"proc":1,"kind":null,"msg":null,"label":null,"sets":null}]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"sets":{"x":1},"sets":null,"sets":{"y":null}}]}`)
	f.Add(`{"version":null,"processes":1,"events":[]}`)
	f.Add(`null`)
	// Escapes and invalid UTF-8 in names and labels.
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"label":"aé😀\ud800x\"\\\/\b\f\n\r\t<>& ","sets":{"vAr":1}}]}`)
	f.Add("{\"version\":1,\"processes\":1,\"events\":[{\"proc\":1,\"label\":\"\xff\xfe\xed\xa0\x80\",\"sets\":{\"\xc3\":2}}]}")
	f.Add(`{"version":1,"processes":1,"events":[{"pro\u0063":1,"sets":{"\u0078":1,"x":2,"\ud83d\ude00":3}}]}`)
	// The two narrowings: a case-folded key, trailing bytes.
	f.Add(`{"version":1,"Processes":1,"events":[]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"pROC":1}]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"ſets":{"x":1}}]}`)
	f.Add(`{"version":1,"processes":1,"events":[]} x`)
	f.Add(`{"version":1,"processes":1,"events":[]}` + "\n\t ")
	// Numbers: integers only, in int64 range.
	f.Add(`{"version":1.0,"processes":1,"events":[]}`)
	f.Add(`{"version":1e2,"processes":1,"events":[]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"sets":{"x":9223372036854775808}}]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"sets":{"x":-9223372036854775808}}]}`)
	f.Add(`{"version":01,"processes":-0,"events":[]}`)
	f.Add(`{"version":1,"processes":1,"events":[{"proc":1,"sets":{}}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		comp, err := Decode(strings.NewReader(input))
		if narrowed([]byte(input)) {
			if err == nil {
				t.Fatalf("accepted an input outside the contract:\n%q", input)
			}
			return
		}
		ref, refErr := refDecode([]byte(input))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, encoding/json error %v\n%q", err, refErr, input)
		}
		if err != nil {
			return
		}
		if comp.N() > MaxProcesses {
			t.Fatalf("decoder accepted %d processes (bound %d)", comp.N(), MaxProcesses)
		}
		sameComputation(t, ref, comp)
		if !slices.Equal(ref.Messages(), comp.Messages()) {
			t.Fatalf("message ids differ: %v vs %v", ref.Messages(), comp.Messages())
		}
		var out bytes.Buffer
		if err := Encode(&out, comp); err != nil {
			t.Fatalf("decoded computation fails to encode: %v", err)
		}
		// The reference walk tests EnabledEvent per process per step,
		// O(|E|·n²): compare only where that stays fast.
		if comp.N() <= 256 {
			if want := refEncode(comp); !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("Encode differs from the reflection encoder:\n%s\nwant\n%s", out.Bytes(), want)
			}
		}
		back, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace fails to decode: %v\n%s", err, out.String())
		}
		// Zero initial values are not written, so the round trip is
		// compared in the format: it must be a fixed point.
		var again bytes.Buffer
		if err := Encode(&again, back); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("round trip changed the trace (%v):\n%s\nthen\n%s", err, out.Bytes(), again.Bytes())
		}
	})
}
