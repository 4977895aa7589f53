// Binary framing and the shared bounded frame scanner. The wire
// multiplexes two frame encodings on one connection: NDJSON lines
// (every line starts with '{') and length-prefixed binary frames
// (every frame starts with FrameMagic, which can never begin a JSON
// value). FrameScanner is the single reader for both — the TCP
// transport, the cluster replication links, the Go client, and the
// fuzz harness all use it, so every path enforces the same
// MaxFrameBytes bound.
//
// Binary frame layout:
//
//	0xB1                  FrameMagic
//	type byte             BinBatch (client ingest) or BinRepl (cluster links)
//	uvarint length        payload bytes, ≤ MaxFrameBytes
//	payload               for BinBatch: a pir binary batch payload;
//	                      for BinRepl: see internal/cluster/wire.go
//
// Binary ingest is negotiated: a hello or resume frame carrying
// "encoding":"binary" opts the connection in, and the welcome echoes
// it. Control frames (hello, resume, snapshot, bye) stay NDJSON on
// every connection; server → client traffic is always NDJSON.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire encodings a hello/resume frame may request. The empty string
// means EncodingNDJSON.
const (
	EncodingNDJSON = "ndjson"
	EncodingBinary = "binary"
)

// ValidateEncoding checks an encoding negotiation value.
func ValidateEncoding(enc string) error {
	switch enc {
	case "", EncodingNDJSON, EncodingBinary:
		return nil
	}
	return fmt.Errorf("server: unknown encoding %q (want %q or %q)", enc, EncodingNDJSON, EncodingBinary)
}

// FrameMagic is the first byte of every binary frame. 0xB1 is not
// valid UTF-8 and cannot start a JSON value, so the scanner
// discriminates encodings on one byte.
const FrameMagic byte = 0xB1

// Binary frame types (the byte after FrameMagic).
const (
	// BinBatch carries a pir binary batch payload (seq + events).
	BinBatch byte = 0x01
	// BinRepl carries one entry of a session's replication log between
	// cluster nodes. Only replication links speak it; on a client
	// connection it is an unknown frame type.
	BinRepl byte = 0x02
)

// ErrFrameTooLong reports a frame (either encoding) whose size exceeds
// MaxFrameBytes. The transport maps it to an explanatory error frame
// and the CloseTooLong close reason so clients can tell an oversized
// frame from network loss.
var ErrFrameTooLong = errors.New("server: frame exceeds MaxFrameBytes")

// AppendBinaryFrame appends one binary frame (magic, type, length,
// payload) to dst.
func AppendBinaryFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, FrameMagic, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// FrameScanner reads a mixed NDJSON/binary frame stream with every
// frame bounded at MaxFrameBytes. The interface mirrors
// bufio.Scanner: Scan, then Bytes (valid until the next Scan), then
// Err after Scan returns false.
type FrameScanner struct {
	br     *bufio.Reader
	buf    []byte
	binary bool
	typ    byte
	err    error
}

// NewFrameScanner returns a FrameScanner reading from r. This is the
// one bounded-frame constructor in the repository; hand-rolling a
// bufio.Scanner with its own cap means fuzzing a bound production
// never uses.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{br: bufio.NewReaderSize(r, 4096)}
}

// Scan advances to the next frame. It returns false at EOF or on
// error; Err distinguishes the two.
func (s *FrameScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	first, err := s.br.ReadByte()
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return false
	}
	if first == FrameMagic {
		return s.scanBinary()
	}
	if err := s.br.UnreadByte(); err != nil {
		s.err = err
		return false
	}
	return s.scanLine()
}

// scanLine reads one newline-terminated frame into buf, stripping the
// terminator (\n or \r\n). A final line without a terminator is
// emitted, matching bufio.Scanner.
func (s *FrameScanner) scanLine() bool {
	s.binary = false
	s.buf = s.buf[:0]
	for {
		chunk, err := s.br.ReadSlice('\n')
		s.buf = append(s.buf, chunk...)
		if len(s.buf) > MaxFrameBytes+1 { // +1: the terminator is not frame payload
			s.err = ErrFrameTooLong
			return false
		}
		switch err {
		case nil:
			s.buf = trimEOL(s.buf)
			return true
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(s.buf) == 0 {
				return false
			}
			return true
		default:
			s.err = err
			return false
		}
	}
}

// scanBinary reads the remainder of a binary frame (the magic byte is
// consumed). Truncation surfaces as io.ErrUnexpectedEOF.
func (s *FrameScanner) scanBinary() bool {
	s.binary = true
	typ, err := s.br.ReadByte()
	if err != nil {
		s.err = noEOF(err)
		return false
	}
	s.typ = typ
	ln, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.err = noEOF(err)
		return false
	}
	if ln > MaxFrameBytes {
		s.err = ErrFrameTooLong
		return false
	}
	if uint64(cap(s.buf)) < ln {
		s.buf = make([]byte, ln)
	}
	s.buf = s.buf[:ln]
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		s.err = noEOF(err)
		return false
	}
	return true
}

// noEOF maps a mid-frame EOF to io.ErrUnexpectedEOF: the stream ended
// inside a frame, which is an error, unlike EOF between frames.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return b
}

// Bytes returns the current frame: the NDJSON line without its
// terminator, or the binary payload without its header. The slice is
// only valid until the next Scan.
func (s *FrameScanner) Bytes() []byte { return s.buf }

// Binary reports whether the current frame is binary.
func (s *FrameScanner) Binary() bool { return s.binary }

// BinaryType returns the type byte of the current binary frame.
func (s *FrameScanner) BinaryType() byte { return s.typ }

// Buffered returns the bytes already read from the stream that Scan has
// not consumed yet. Zero means the next Scan waits on the peer — the
// point at which a reader that answers per burst should answer.
func (s *FrameScanner) Buffered() int { return s.br.Buffered() }

// LineBuffered reports whether the next frame is an NDJSON line already
// whole in the read buffer, so that Scan returns it without reading from
// the stream (and so without waiting on the peer or a read deadline).
func (s *FrameScanner) LineBuffered() bool {
	b, _ := s.br.Peek(s.br.Buffered())
	return len(b) > 0 && b[0] != FrameMagic && bytes.IndexByte(b, '\n') >= 0
}

// Err returns the first error encountered (nil at clean EOF).
func (s *FrameScanner) Err() error { return s.err }
