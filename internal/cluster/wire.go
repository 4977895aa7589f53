package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/pir"
	"repro/internal/server"
)

// Replication protocol. It rides the same TCP listener as client ingest
// — the server's takeover hook recognizes the repl-hello line and hands
// the connection to the replica handler before client-frame decoding —
// and splits the way the client protocol does: control messages are
// NDJSON, one replMsg per line; log entries travel as length-prefixed
// binary frames of type server.BinRepl, read by the same FrameScanner.
//
// The dialog is deliberately half-step: after repl-hello the sender
// waits for repl-welcome before writing anything else, so no replication
// byte can sit in the ingest handshake's scanner buffer when the
// connection is handed over. After that the sender streams repl-open
// messages and data frames, and the replica answers with repl-ack
// carrying its contiguous per-session high-water seq — the sender's
// durability watermark, which gates client acks. Acks are cumulative, so
// the replica sends one per touched session per burst (when its scanner
// has nothing further buffered), not one per frame.
//
// Every session-scoped message carries the session's incarnation epoch,
// minted by the owner when it first hosts the key (fresh open, failover
// promotion, or drain handoff — each bumps it past every epoch the
// minting node has seen for the key). A replica holding an older epoch
// fences: it truncates the stale log and adopts the new incarnation. A
// message carrying an older epoch than the replica holds is answered
// with repl-reject code "stale-epoch" — the typed signal that tells a
// zombie ex-owner it has been superseded.
//
// Data frame payload (all integers uvarint):
//
//	len(session) session   the placement key
//	epoch                  the log's incarnation epoch
//	seq                    the entry's position in the log, from 1
//	entry                  the log entry, verbatim (kind byte + body, below)
const (
	msgReplHello      = "repl-hello"       // sender → replica: opens the link (From = sender identity)
	msgReplWelcome    = "repl-welcome"     // replica → sender: link accepted
	msgReplOpen       = "repl-open"        // sender → replica: begin (or resync) a session log; Hello carries the keyed hello, Epoch the incarnation
	msgReplAck        = "repl-ack"         // replica → sender: contiguous per-session high-water seq applied to the log (Epoch echoes the log's)
	msgReplReject     = "repl-reject"      // replica → sender: message refused; Code says why, Epoch is the epoch the replica holds
	msgReplHandoff    = "repl-handoff"     // sender → replica: drain handoff offer — adopt the log at Seq frames under the bumped Epoch
	msgReplHandoffAck = "repl-handoff-ack" // replica → sender: handoff accepted; the replica now owns the session
)

// repl-reject codes. Stale-epoch reuses the client-protocol constant so
// one grep finds every fencing decision.
const (
	rejectStaleEpoch      = server.CodeStaleEpoch // message epoch is older than the held one
	rejectHandoffMismatch = "handoff-mismatch"    // handoff offer does not match the replica's log
	rejectHandoffFailed   = "handoff-failed"      // replica could not rebuild the session from the log
)

// replMsg is one replication protocol message. Type selects the fields.
type replMsg struct {
	Type string `json:"type"`
	// From identifies the dialing node on repl-hello (its ring identity).
	From string `json:"from,omitempty"`
	// Session is the placement key the message concerns.
	Session string `json:"session,omitempty"`
	// Seq is the replica's contiguous high-water mark on repl-ack, and
	// the expected log length on repl-handoff.
	Seq int64 `json:"seq,omitempty"`
	// Epoch is the session's incarnation epoch: the log's epoch on
	// repl-open/repl-ack, the bumped epoch on repl-handoff and
	// repl-handoff-ack, and the epoch the replica holds on repl-reject.
	Epoch int64 `json:"epoch,omitempty"`
	// Code classifies a repl-reject.
	Code string `json:"code,omitempty"`
	// Hello is the session's keyed hello frame on repl-open.
	Hello *server.ClientFrame `json:"hello,omitempty"`
}

// isReplHello reports whether a connection's first line opens the
// replication protocol — the takeover test. A client hello decodes too
// (both are JSON objects with a type field) but can never carry the
// repl-hello type, so the check cannot misfire on ingest traffic.
func isReplHello(line []byte) bool {
	var m replMsg
	if json.Unmarshal(line, &m) != nil {
		return false
	}
	return m.Type == msgReplHello
}

// decodeReplMsg parses one replication protocol line.
func decodeReplMsg(line []byte) (replMsg, error) {
	var m replMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return m, fmt.Errorf("cluster: bad replication frame: %v", err)
	}
	return m, nil
}

// appendReplMsg marshals m as one NDJSON line.
func appendReplMsg(m replMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("cluster: marshal replication frame: " + err.Error())
	}
	return append(b, '\n')
}

// appendFrameHeader appends the part of a data frame's payload that is
// fixed for one incarnation of a session: the key and the epoch.
func appendFrameHeader(dst []byte, session string, epoch int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(session)))
	dst = append(dst, session...)
	return binary.AppendUvarint(dst, uint64(epoch))
}

// appendDataFrame appends one data frame: header is appendFrameHeader's
// output, entry the log entry at position seq.
func appendDataFrame(dst, header []byte, seq int64, entry []byte) []byte {
	var sb [binary.MaxVarintLen64]byte
	seqb := binary.AppendUvarint(sb[:0], uint64(seq))
	dst = append(dst, server.FrameMagic, server.BinRepl)
	dst = binary.AppendUvarint(dst, uint64(len(header)+len(seqb)+len(entry)))
	dst = append(dst, header...)
	dst = append(dst, seqb...)
	return append(dst, entry...)
}

// dataFrame is a parsed data frame; session and entry alias the payload.
type dataFrame struct {
	session []byte
	epoch   int64
	seq     int64
	entry   []byte
}

// parseDataFrame splits a BinRepl payload. It bounds the key and the
// seq; the entry is validated separately (decodeEntry).
func parseDataFrame(p []byte) (dataFrame, error) {
	var f dataFrame
	kl, n := binary.Uvarint(p)
	if n <= 0 || kl == 0 || kl > server.MaxKeyBytes || kl > uint64(len(p)-n) {
		return f, fmt.Errorf("cluster: bad data frame session")
	}
	f.session, p = p[n:n+int(kl)], p[n+int(kl):]
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return f, fmt.Errorf("cluster: bad data frame epoch")
	}
	p = p[n:]
	seq, n := binary.Uvarint(p)
	if n <= 0 || seq == 0 || seq > 1<<62 {
		return f, fmt.Errorf("cluster: bad data frame seq")
	}
	f.epoch, f.seq, f.entry = int64(epoch), int64(seq), p[n:]
	return f, nil
}

// A session's replication log is a list of entries, one per accepted
// sequenced frame, encoded once when the frame is accepted and from then
// on only copied: to each replica's link, into the replica's log, and
// back into frames when a promotion or handoff replays it. The first
// byte of an entry is its kind.
const (
	// entryBatch is event data: a pir binary batch payload (seq, then the
	// events) encoded against an empty VarTable, so every entry declares
	// the names it uses and decodes on its own — resend from any seq,
	// fence truncation and replay need no table state. A single init or
	// event frame is logged as the one-row batch the session applies it as.
	entryBatch byte = 0
	// entryControl is the frame as an NDJSON line: the bye, and any frame
	// no batch payload can carry (an unknown event kind, an id outside a
	// row's int32 columns, a batch frame whose columns do not validate).
	// The session rejects those when it applies them, and must reject
	// them with the same text when the log is replayed.
	entryControl byte = 1
)

// entryEncoder is the reused scratch onAccept encodes entries with.
type entryEncoder struct {
	vt  pir.VarTable
	row pir.Batch
	buf []byte
}

// encode renders an accepted frame as a log entry (freshly allocated;
// the log keeps it).
func (e *entryEncoder) encode(f server.ClientFrame) []byte {
	var b *pir.Batch
	switch f.Type {
	case server.FrameInit, server.FrameEvent:
		// The binary codec has no sign on the proc column, so a negative
		// proc is logged as a control entry for the session to reject.
		if e.row.Reset(); f.Proc >= 0 && server.AppendRow(&e.row, &f, 0) == "" {
			b = &e.row
		}
	case server.FrameBatch:
		if f.Batch != nil && f.Batch.Validate() == nil && procsEncodable(f.Batch) {
			b = f.Batch
		}
	}
	if b != nil {
		e.vt.Reset()
		e.buf = pir.AppendBatch(append(e.buf[:0], entryBatch), f.Seq, b, &e.vt)
	} else {
		line, err := json.Marshal(f)
		if err != nil {
			panic("cluster: marshal control entry: " + err.Error())
		}
		e.buf = append(append(e.buf[:0], entryControl), line...)
	}
	return append([]byte(nil), e.buf...)
}

// procsEncodable reports whether every proc of b survives the binary
// codec, which has no sign on the proc column.
func procsEncodable(b *pir.Batch) bool {
	for _, p := range b.Procs {
		if p < 0 {
			return false
		}
	}
	return true
}

// decodeEntry decodes one log entry back into the frame it was encoded
// from (a batch entry comes back as a batch frame in b), using vt as
// scratch. It is both the replay decoder and the replica's admission
// check: an entry that fails here is never appended to a log.
func decodeEntry(entry []byte, vt *pir.VarTable, b *pir.Batch) (server.ClientFrame, error) {
	if len(entry) == 0 {
		return server.ClientFrame{}, fmt.Errorf("cluster: empty log entry")
	}
	switch entry[0] {
	case entryBatch:
		seq, body, err := pir.BatchSeq(entry[1:])
		if err != nil {
			return server.ClientFrame{}, err
		}
		vt.Reset()
		if err := b.DecodeBody(body, vt); err != nil {
			return server.ClientFrame{}, err
		}
		return server.ClientFrame{Type: server.FrameBatch, Seq: seq, Batch: b}, nil
	case entryControl:
		return server.DecodeClientFrame(entry[1:])
	}
	return server.ClientFrame{}, fmt.Errorf("cluster: unknown log entry kind 0x%02x", entry[0])
}

// decodeLog turns a replication log back into the accepted frames, for
// server.OpenRecovered. A client waits out this call, so each batch is
// decoded into one reused scratch and kept as an exact-size clone rather
// than grown column by column.
func decodeLog(log [][]byte) ([]server.ClientFrame, error) {
	frames := make([]server.ClientFrame, len(log))
	var vt pir.VarTable
	var scratch pir.Batch
	for i, entry := range log {
		f, err := decodeEntry(entry, &vt, &scratch)
		if err != nil {
			return nil, fmt.Errorf("log entry %d: %v", i+1, err)
		}
		if f.Batch == &scratch {
			f.Batch = scratch.Clone()
		}
		frames[i] = f
	}
	return frames, nil
}
