// Multiplexed framing: protocol version 1 of the peer transport.
//
// A legacy connection carries strictly alternating call/reply frames, each a
// 4-byte length prefix plus a body, so one slow call head-of-line-blocks
// everything behind it. A mux connection interleaves many logical calls: the
// client opens it with an 8-byte hello (magic + highest supported version),
// the server answers with the same shape carrying the negotiated version,
// and from then on every frame is {stream ID, length, body}. Replies
// come back tagged with the stream they answer, in whatever order subtrees
// complete.
//
// The magic is chosen above MaxFrame, so the first four bytes of a
// connection are unambiguous: a value that parses as a plausible legacy
// length prefix is a legacy frame, the magic is a hello. A pre-mux server
// reading the hello as a length prefix rejects it as oversized and drops the
// connection, which the client takes as "legacy peer" and retries with the
// old framing — mixed fleets keep working. A mux-aware server with
// multiplexing disabled acks version 0, meaning "continue sequentially on
// this same connection".
//
// Frame bodies are the same codec.go encoding as on the legacy path, so the
// payload bytes of a message are identical under either framing; only the
// header differs.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// muxMagic opens a mux hello. It decodes as an absurd legacy frame length
// (0x52504C58, "RPLX", ≈1.3 GiB > MaxFrame), so it can never be confused
// with a real legacy length prefix.
const muxMagic = 0x52504C58

// MuxVersion is the highest mux protocol version this build speaks. The
// server acks the minimum of its own and the client's version; an ack of 0
// means "sequential protocol on this connection".
const MuxVersion = 1

// IsMuxPrefix reports whether four bytes read as a legacy length prefix are
// actually the opening of a mux hello.
func IsMuxPrefix(prefix [4]byte) bool {
	return binary.BigEndian.Uint32(prefix[:]) == muxMagic
}

// WriteMuxHello writes a hello or ack: magic followed by a version word.
func WriteMuxHello(w io.Writer, version uint32) error {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], muxMagic)
	binary.BigEndian.PutUint32(b[4:], version)
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("wire: write mux hello: %w", err)
	}
	return nil
}

// ReadMuxHello reads a full hello/ack and returns its version.
func ReadMuxHello(r io.Reader) (uint32, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(b[:4]) != muxMagic {
		return 0, fmt.Errorf("wire: not a mux hello")
	}
	return binary.BigEndian.Uint32(b[4:]), nil
}

// ReadMuxVersion reads the version word of a hello whose magic the caller
// already consumed (the server sniffs the first four bytes to tell mux from
// legacy traffic).
func ReadMuxVersion(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

// WriteMuxFrame frames and writes one message on the given stream: stream
// ID, body length, body, in a single Write like WriteMessage.
func WriteMuxFrame(w io.Writer, stream uint32, msg interface{}) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], stream)
	return writeFrame(w, hdr[:], msg)
}

// ReadMuxFrame reads one mux frame into msg and returns its stream ID. On a
// *FrameSizeError the stream ID is still valid — the body is unread, so the
// connection cannot be resynchronised, but the server can report the
// rejection on the offending stream before dropping the connection.
func ReadMuxFrame(r io.Reader, msg interface{}) (uint32, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err // io.EOF signals a cleanly closed connection
	}
	return binary.BigEndian.Uint32(hdr[:4]), readBody(r, binary.BigEndian.Uint32(hdr[4:]), msg)
}

// OverloadedPrefix marks a Reply.Error produced by the server's admission
// control rather than by query processing: the worker pool and its queue
// were full, and the call was rejected instead of stalling the socket.
// Unlike a processing error, an overload is transient by construction, so
// the caller retries it under the normal backoff policy.
const OverloadedPrefix = "overloaded: "

// Overloaded builds an admission-control Reply.Error.
func Overloaded(detail string) string { return OverloadedPrefix + detail }

// IsOverloaded reports whether a Reply.Error came from admission control.
func IsOverloaded(errMsg string) bool { return strings.HasPrefix(errMsg, OverloadedPrefix) }
