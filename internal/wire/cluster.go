package wire

import "fmt"

// cluster.go is the multi-node extension of the frame format: the
// partition-map fetch exchange and the typed not-owner refusal that drives
// partition-map version negotiation.
//
// Payload layouts (after the frame header, all little-endian):
//
//	TMapFetch:    empty
//	TMapResult:   the encoded partition map verbatim (internal/cluster's
//	              CRC-framed format; wire treats it as an opaque blob)
//	TErrNotOwner: epoch u64, len u16, message bytes
//	TPong:        empty, or epoch u64 on cluster-configured nodes
//
// A node that receives a feed or range query it does not own under its
// current partition map answers TErrNotOwner carrying its map epoch. A
// router holding a stale map (older epoch) refetches with TMapFetch and
// retries; the exchange mirrors the retry-after negotiation of
// backpressure refusals, but the hint is "which map" rather than "when".

const (
	// TMapFetch requests the serving node's current partition map.
	TMapFetch Type = 0x05
	// TMapResult answers a TMapFetch with the encoded partition map.
	TMapResult Type = 0x45
	// TErrNotOwner refuses a feed or range query whose spatial footprint
	// is not owned by this node under its current partition map. The
	// payload carries the node's map epoch so a stale router knows to
	// refetch before retrying.
	TErrNotOwner Type = 0x7E
)

// NotOwnerError is a TErrNotOwner frame surfaced as a Go error: the
// serving node does not own the request's spatial footprint under its map.
type NotOwnerError struct {
	// Epoch is the refusing node's current partition-map epoch.
	Epoch uint64
	Msg   string
}

// Error implements error.
func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("server: not owner (map epoch %d): %s", e.Epoch, e.Msg)
}

// NotOwnerEpoch reports the refusing node's map epoch. Routing layers
// detect not-owner refusals through this method (via errors.As on an
// interface) so each layer can wrap the error in its own public type.
func (e *NotOwnerError) NotOwnerEpoch() uint64 { return e.Epoch }

// AppendMapFetch appends an untraced TMapFetch frame.
func AppendMapFetch(buf []byte, id uint64) []byte { return AppendMapFetchTraced(buf, id, 0) }

// AppendMapFetchTraced appends a TMapFetch frame carrying traceID (0
// encodes an untraced frame).
func AppendMapFetchTraced(buf []byte, id, traceID uint64) []byte {
	return appendFrameF(buf, TMapFetch, id, traceID, nil)
}

// AppendMapResult appends a TMapResult frame whose payload is the encoded
// partition map verbatim.
func AppendMapResult(buf []byte, id uint64, encoded []byte) []byte {
	return appendFrameF(buf, TMapResult, id, 0, func(b []byte) []byte { return append(b, encoded...) })
}

// DecodeMapResult returns the encoded partition map from a TMapResult
// payload. The bytes alias the payload; callers that retain them past the
// frame must copy. An empty payload is malformed — a node with no map
// answers TError, not an empty result.
func DecodeMapResult(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errMalformed("empty map result")
	}
	return payload, nil
}

// AppendNotOwner appends a TErrNotOwner frame.
func AppendNotOwner(buf []byte, id uint64, epoch uint64, msg string) []byte {
	return appendFrameF(buf, TErrNotOwner, id, 0, func(b []byte) []byte {
		b = appendU64(b, epoch)
		if len(msg) > 0xFFFF {
			msg = msg[:0xFFFF]
		}
		b = appendU16(b, uint16(len(msg)))
		return append(b, msg...)
	})
}

// DecodeNotOwner decodes a TErrNotOwner payload.
func DecodeNotOwner(payload []byte) (*NotOwnerError, error) {
	c := &cursor{b: payload}
	epoch, err := c.u64()
	if err != nil {
		return nil, err
	}
	msg, err := c.str()
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return &NotOwnerError{Epoch: epoch, Msg: msg}, nil
}

// AppendPongEpoch appends a TPong frame carrying the node's partition-map
// epoch. Non-clustered nodes answer the bare AppendPong instead; clients
// accept both (DecodePong).
func AppendPongEpoch(buf []byte, id uint64, epoch uint64) []byte {
	return appendFrameF(buf, TPong, id, 0, func(b []byte) []byte { return appendU64(b, epoch) })
}

// DecodePong decodes a TPong payload: hasEpoch is false for the empty
// pre-cluster payload, true when the node advertised its map epoch.
func DecodePong(payload []byte) (epoch uint64, hasEpoch bool, err error) {
	switch len(payload) {
	case 0:
		return 0, false, nil
	case 8:
		c := &cursor{b: payload}
		epoch, _ = c.u64()
		return epoch, true, nil
	default:
		return 0, false, errMalformed("pong payload %d bytes, want 0 or 8", len(payload))
	}
}
