package wire

import (
	"encoding/binary"

	"github.com/spatiotext/latest/internal/stream"
)

// trace.go is the tracing extension of the frame format. The 24-byte
// header's flags field was reserved-must-be-zero through protocol version
// 1's first deployment; tracing claims its lowest bit without a version
// bump. When FlagTrace is set on a REQUEST frame, the payload begins with
// an 8-byte little-endian trace ID and the type-specific payload follows
// it; the declared Length covers both. Responses never carry the flag —
// the client correlates responses to requests (and therefore to trace IDs)
// by the echoed request id, so echoing the trace would spend eight bytes
// per response on information the receiver already has.
//
// Decoders reject any unknown flag bit with CodeMalformed, exactly as the
// reserved-must-be-zero rule did, so an old server confronted with a
// traced frame refuses it loudly rather than misparsing the payload, and a
// future flag bit gets the same safety.

// FlagTrace marks a request whose payload is prefixed with an 8-byte trace
// ID.
const FlagTrace uint16 = 1 << 0

// KnownFlags is the set of flag bits this build understands; all others
// are rejected as malformed.
const KnownFlags uint16 = FlagTrace

// traceWireSize is the size of the trace-ID payload prefix.
const traceWireSize = 8

// SplitTrace validates h.Flags and splits the trace-ID prefix from a
// request payload: it returns the trace ID (0 when untraced) and the
// type-specific payload that the Decode* functions consume. Unknown flag
// bits and a traced payload too short for its prefix are CodeMalformed.
func SplitTrace(h Header, payload []byte) (traceID uint64, rest []byte, err error) {
	if h.Flags&^KnownFlags != 0 {
		return 0, nil, errMalformed("unknown header flags 0x%04x", h.Flags&^KnownFlags)
	}
	if h.Flags&FlagTrace == 0 {
		return 0, payload, nil
	}
	if len(payload) < traceWireSize {
		return 0, nil, errMalformed("traced frame payload %d bytes, want >= %d", len(payload), traceWireSize)
	}
	return binary.LittleEndian.Uint64(payload), payload[traceWireSize:], nil
}

// AppendFeedBatchTraced appends a complete TFeedBatch frame carrying
// traceID (0 encodes an untraced frame).
func AppendFeedBatchTraced(buf []byte, id, traceID uint64, objs []stream.Object) []byte {
	return appendFrameF(buf, TFeedBatch, id, traceID, func(b []byte) []byte {
		b = appendU32(b, uint32(len(objs)))
		for i := range objs {
			b = appendObject(b, &objs[i])
		}
		return b
	})
}

// AppendEstimateTraced appends a complete TEstimate frame carrying traceID.
func AppendEstimateTraced(buf []byte, id, traceID uint64, deadlineMS uint32, q *stream.Query) []byte {
	return appendFrameF(buf, TEstimate, id, traceID, func(b []byte) []byte {
		b = appendU32(b, deadlineMS)
		return appendQuery(b, q)
	})
}

// AppendQueryBatchTraced appends a complete TQueryBatch frame carrying
// traceID.
func AppendQueryBatchTraced(buf []byte, id, traceID uint64, deadlineMS uint32, qs []stream.Query) []byte {
	return appendFrameF(buf, TQueryBatch, id, traceID, func(b []byte) []byte {
		b = appendU32(b, deadlineMS)
		b = appendU32(b, uint32(len(qs)))
		for i := range qs {
			b = appendQuery(b, &qs[i])
		}
		return b
	})
}

// AppendPingTraced appends a TPing frame carrying traceID.
func AppendPingTraced(buf []byte, id, traceID uint64) []byte {
	return appendFrameF(buf, TPing, id, traceID, nil)
}
