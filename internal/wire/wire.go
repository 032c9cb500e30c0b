// Package wire is the binary protocol latestd speaks on its hot path: a
// length-prefixed little-endian frame format carrying feed batches,
// estimation queries and their results over a plain TCP stream.
//
// Every frame is a fixed 24-byte header followed by a type-specific
// payload:
//
//	offset  size  field
//	0       4     magic "LTST"
//	4       1     protocol version (currently 1)
//	5       1     frame type
//	6       2     flags (bit 0 = FlagTrace: payload starts with an 8-byte
//	              trace ID; all other bits reserved, must be zero)
//	8       8     request id (echoed verbatim in the response)
//	16      4     payload length in bytes
//	20      4     IEEE CRC32 of bytes [0,20)
//
// All integers are little-endian; floats are IEEE-754 bits little-endian.
// The CRC covers only the header: it exists to reject desynchronized or
// corrupted framing cheaply before the length field is trusted, not to
// checksum bulk payload bytes (TCP already does that; a reproducible
// corruption there is caught by the engine's input validation instead).
//
// The codec never allocates on the encode path beyond growing the caller's
// buffer — callers are expected to reuse buffers across frames, and
// GetBuf/PutBuf provide a pooled source. Decoding reuses caller-provided
// object/query slices the same way, with one deliberate exception: each
// decoded object's keyword slice is freshly allocated (engines retain it
// after insert, so it must never alias a recycled buffer). Strings are
// per-decode allocations regardless.
//
// Decode errors are all typed *ProtoError values carrying the error code a
// server should echo back in a TError frame, so the serving layer can turn
// any malformed input into a typed rejection without interpreting reasons.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// Version is the protocol version this package encodes. Decoders reject
// frames with a different version byte with CodeVersionSkew — the protocol
// has no negotiation; both sides must run the same major version.
const Version = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 24

// DefaultMaxPayload bounds the payload length a reader accepts before
// allocating. Frames declaring more are rejected with CodeTooLarge; the
// bound exists so a corrupt or hostile length field cannot drive a
// multi-gigabyte allocation.
const DefaultMaxPayload = 8 << 20 // 8 MiB

// magic is the first four bytes of every frame: "LTST".
var magic = [4]byte{'L', 'T', 'S', 'T'}

// Type identifies a frame's meaning. Requests occupy 0x01..0x3F, responses
// 0x41..0x7E, and TError 0x7F answers any request.
type Type uint8

const (
	// TFeedBatch carries a batch of stream objects to ingest.
	TFeedBatch Type = 0x01
	// TEstimate carries one query to answer approximately (the server
	// closes the feedback loop with its own exact window answer).
	TEstimate Type = 0x02
	// TQueryBatch carries a batch of queries for full
	// estimate+execute+observe cycles.
	TQueryBatch Type = 0x03
	// TPing is a liveness/no-op request.
	TPing Type = 0x04
	// TMapFetch and its TMapResult/TErrNotOwner companions are the cluster
	// extension, defined in cluster.go (TMapFetch = 0x05).

	// TAck acknowledges a TFeedBatch with the accepted object count.
	TAck Type = 0x41
	// TEstimateResult answers a TEstimate with one float64.
	TEstimateResult Type = 0x42
	// TQueryBatchResult answers a TQueryBatch with parallel
	// estimate/actual arrays.
	TQueryBatchResult Type = 0x43
	// TPong answers a TPing.
	TPong Type = 0x44

	// TError answers any request with a typed error: a code, an optional
	// retry-after hint, and a human-readable message.
	TError Type = 0x7F
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TFeedBatch:
		return "feed_batch"
	case TEstimate:
		return "estimate"
	case TQueryBatch:
		return "query_batch"
	case TPing:
		return "ping"
	case TMapFetch:
		return "map_fetch"
	case TMapResult:
		return "map_result"
	case TErrNotOwner:
		return "err_not_owner"
	case TAck:
		return "ack"
	case TEstimateResult:
		return "estimate_result"
	case TQueryBatchResult:
		return "query_batch_result"
	case TPong:
		return "pong"
	case TError:
		return "error"
	default:
		return fmt.Sprintf("Type(0x%02x)", uint8(t))
	}
}

// request reports whether t is a request type a server should accept.
func (t Type) Request() bool { return t >= TFeedBatch && t <= TMapFetch }

// Code classifies protocol-level failures. Codes travel in TError frames
// and in *ProtoError decode errors.
type Code uint16

const (
	// CodeMalformed: the frame or payload failed to parse.
	CodeMalformed Code = 1
	// CodeTooLarge: the declared payload length exceeds the reader's cap.
	CodeTooLarge Code = 2
	// CodeVersionSkew: the version byte does not match Version.
	CodeVersionSkew Code = 3
	// CodeUnknownType: the frame type is not a request the server knows.
	CodeUnknownType Code = 4
	// CodeBackpressure: the connection's in-flight window is full, or the
	// server is at its connection limit; retry after the hinted delay.
	CodeBackpressure Code = 5
	// CodeDraining: the server is shutting down gracefully; retry against
	// another instance (or the same one after the hinted delay).
	CodeDraining Code = 6
	// CodeDeadlineExceeded: the request's deadline budget elapsed before
	// the engine answered.
	CodeDeadlineExceeded Code = 7
	// CodeInternal: the engine failed in a way the guard layer contained.
	CodeInternal Code = 8
)

// String implements fmt.Stringer.
func (c Code) String() string {
	switch c {
	case CodeMalformed:
		return "malformed"
	case CodeTooLarge:
		return "too_large"
	case CodeVersionSkew:
		return "version_skew"
	case CodeUnknownType:
		return "unknown_type"
	case CodeBackpressure:
		return "backpressure"
	case CodeDraining:
		return "draining"
	case CodeDeadlineExceeded:
		return "deadline_exceeded"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("Code(%d)", uint16(c))
	}
}

// Retryable reports whether a request failing with this code can be safely
// reissued later: the server refused it before any engine state changed.
func (c Code) Retryable() bool { return c == CodeBackpressure || c == CodeDraining }

// ProtoError is a typed protocol violation detected while decoding. The
// Code is what a server echoes back in a TError frame.
type ProtoError struct {
	Code   Code
	Reason string
}

// Error implements error.
func (e *ProtoError) Error() string { return "wire: " + e.Code.String() + ": " + e.Reason }

func errMalformed(format string, args ...any) error {
	return &ProtoError{Code: CodeMalformed, Reason: fmt.Sprintf(format, args...)}
}

// Header is a decoded frame header.
type Header struct {
	Type   Type
	Flags  uint16
	ID     uint64
	Length uint32
}

// castagnoli vs IEEE: IEEE is universally available in hash/crc32 without a
// table build at each call; the header is 20 bytes so either is free.
var crcTable = crc32.IEEETable

// PutHeader encodes h into buf, which must be at least HeaderSize long.
func PutHeader(buf []byte, h Header) {
	_ = buf[HeaderSize-1]
	copy(buf[0:4], magic[:])
	buf[4] = Version
	buf[5] = byte(h.Type)
	binary.LittleEndian.PutUint16(buf[6:8], h.Flags)
	binary.LittleEndian.PutUint64(buf[8:16], h.ID)
	binary.LittleEndian.PutUint32(buf[16:20], h.Length)
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(buf[0:20], crcTable))
}

// ParseHeader decodes and verifies a frame header. maxPayload bounds the
// declared payload length (≤0 means DefaultMaxPayload). Errors are typed
// *ProtoError values.
func ParseHeader(buf []byte, maxPayload int) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, errMalformed("truncated header: %d bytes", len(buf))
	}
	if [4]byte(buf[0:4]) != magic {
		return Header{}, errMalformed("bad magic %q", buf[0:4])
	}
	if got := binary.LittleEndian.Uint32(buf[20:24]); got != crc32.Checksum(buf[0:20], crcTable) {
		return Header{}, errMalformed("header CRC mismatch")
	}
	// CRC passes, so the header bytes are what the peer sent — version and
	// length complaints are now meaningful.
	if buf[4] != Version {
		return Header{}, &ProtoError{Code: CodeVersionSkew,
			Reason: fmt.Sprintf("peer speaks version %d, this side %d", buf[4], Version)}
	}
	h := Header{
		Type:   Type(buf[5]),
		Flags:  binary.LittleEndian.Uint16(buf[6:8]),
		ID:     binary.LittleEndian.Uint64(buf[8:16]),
		Length: binary.LittleEndian.Uint32(buf[16:20]),
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if h.Length > uint32(maxPayload) {
		return Header{}, &ProtoError{Code: CodeTooLarge,
			Reason: fmt.Sprintf("payload %d exceeds cap %d", h.Length, maxPayload)}
	}
	return h, nil
}

// bufPool recycles encode buffers across frames and connections.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf returns a pooled, length-zero byte slice for frame encoding.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer to the pool. The caller must not touch the slice
// afterwards. Oversized buffers (greater than 1 MiB) are dropped so one
// huge batch does not pin its allocation forever.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// RemoteError is a TError frame surfaced as a Go error on the client side.
type RemoteError struct {
	Code       Code
	RetryAfter time.Duration
	Msg        string
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server: %s (retry after %s): %s", e.Code, e.RetryAfter, e.Msg)
	}
	return fmt.Sprintf("server: %s: %s", e.Code, e.Msg)
}

// Temporary reports whether the request may be retried.
func (e *RemoteError) Temporary() bool { return e.Code.Retryable() }
