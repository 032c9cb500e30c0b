package wire

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/intern"
	"github.com/spatiotext/latest/internal/stream"
)

// Payload layouts (all little-endian, offsets after the frame header):
//
//	TFeedBatch:        count u32, then count× Object
//	Object:            id u64, x f64, y f64, ts i64, nkw u16, nkw× (len u16, bytes)
//	TEstimate:         deadline_ms u32, Query
//	TQueryBatch:       deadline_ms u32, count u32, then count× Query
//	Query:             flags u8 (bit0 = has range), [minx,miny,maxx,maxy f64],
//	                   ts i64, nkw u16, nkw× (len u16, bytes)
//	TPing:             empty
//	TAck:              accepted u32
//	TEstimateResult:   estimate f64
//	TQueryBatchResult: count u32, then count× (estimate f64, actual i64)
//	TPong:             empty
//	TError:            code u16, retry_after_ms u32, len u16, message bytes
//
// A deadline of 0 means "no deadline". Deadlines are relative millisecond
// budgets, not absolute wall-clock times, so the two sides need no clock
// agreement.

// appendFrame reserves a header, lets fill append the payload, then patches
// the header (length + CRC) in place.
func appendFrame(buf []byte, t Type, id uint64, fill func([]byte) []byte) []byte {
	start := len(buf)
	var hdr [HeaderSize]byte
	buf = append(buf, hdr[:]...)
	if fill != nil {
		buf = fill(buf)
	}
	PutHeader(buf[start:], Header{Type: t, ID: id, Length: uint32(len(buf) - start - HeaderSize)})
	return buf
}

func appendU16(buf []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(buf, v) }
func appendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }
func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// cursor walks a payload with typed, bounds-checked reads. Strings are
// shared through intern when it is set, and decoded objects take their
// keyword slices off the front of kws.
type cursor struct {
	b      []byte
	off    int
	intern *intern.Table
	kws    []string
}

func (c *cursor) remain() int { return len(c.b) - c.off }

func (c *cursor) u16() (uint16, error) {
	if c.remain() < 2 {
		return 0, errMalformed("truncated payload at offset %d (want u16)", c.off)
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if c.remain() < 4 {
		return 0, errMalformed("truncated payload at offset %d (want u32)", c.off)
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.remain() < 8 {
		return 0, errMalformed("truncated payload at offset %d (want u64)", c.off)
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

func (c *cursor) str() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	if c.remain() < int(n) {
		return "", errMalformed("truncated string at offset %d (want %d bytes)", c.off, n)
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	if c.intern != nil {
		return c.intern.String(b), nil
	}
	return string(b), nil
}

// done rejects trailing garbage so a desynchronized encoder is caught at
// the first frame, not after the stream drifts.
func (c *cursor) done() error {
	if c.remain() != 0 {
		return errMalformed("%d trailing bytes after payload", c.remain())
	}
	return nil
}

// ---- objects ----

func appendObject(buf []byte, o *stream.Object) []byte {
	buf = appendU64(buf, o.ID)
	buf = appendF64(buf, o.Loc.X)
	buf = appendF64(buf, o.Loc.Y)
	buf = appendU64(buf, uint64(o.Timestamp))
	buf = appendU16(buf, uint16(len(o.Keywords)))
	for _, kw := range o.Keywords {
		buf = appendU16(buf, uint16(len(kw)))
		buf = append(buf, kw...)
	}
	return buf
}

// objectWireMin is the smallest possible encoded object (no keywords); it
// bounds the plausibility check on batch counts.
const objectWireMin = 8 + 8 + 8 + 8 + 2

// decodeObject reads one object at c. Its keyword slice is carved off the
// front of c.kws, which keywordCount sized, and capped so that an append to
// it cannot reach the next object's.
func decodeObject(c *cursor, o *stream.Object) error {
	var err error
	if o.ID, err = c.u64(); err != nil {
		return err
	}
	if o.Loc.X, err = c.f64(); err != nil {
		return err
	}
	if o.Loc.Y, err = c.f64(); err != nil {
		return err
	}
	ts, err := c.u64()
	if err != nil {
		return err
	}
	o.Timestamp = int64(ts)
	nkw, err := c.u16()
	if err != nil {
		return err
	}
	if int(nkw)*2 > c.remain() {
		return errMalformed("object declares %d keywords, only %d bytes remain", nkw, c.remain())
	}
	if nkw == 0 {
		o.Keywords = nil
	} else {
		o.Keywords, c.kws = c.kws[:nkw:nkw], c.kws[nkw:]
	}
	for i := range o.Keywords {
		if o.Keywords[i], err = c.str(); err != nil {
			return err
		}
	}
	return nil
}

// keywordCount walks the n objects at c without decoding them and returns
// how many keywords they declare. It stops where decodeObject will fail,
// after counting the keywords of every object that passes decodeObject's
// own plausibility check: the count always covers what a decode carves.
func keywordCount(c cursor, n uint32) int {
	total := 0
	for ; n > 0 && c.remain() >= objectWireMin; n-- {
		c.off += objectWireMin - 2
		nkw, _ := c.u16()
		if int(nkw)*2 > c.remain() {
			break
		}
		total += int(nkw)
		for ; nkw > 0; nkw-- {
			l, err := c.u16()
			if err != nil || c.remain() < int(l) {
				return total
			}
			c.off += int(l)
		}
	}
	return total
}

// AppendFeedBatch appends a complete TFeedBatch frame to buf.
func AppendFeedBatch(buf []byte, id uint64, objs []stream.Object) []byte {
	return appendFrame(buf, TFeedBatch, id, func(b []byte) []byte {
		b = appendU32(b, uint32(len(objs)))
		for i := range objs {
			b = appendObject(b, &objs[i])
		}
		return b
	})
}

// keywordTables holds the intern tables feed decoding borrows. The engine
// copies a word only when it enters a dictionary, so nearly every decoded
// keyword is garbage once its batch is applied; through a table a word of
// the recent vocabulary is not allocated at all. A pool rather than a table
// per connection because DecodeFeedBatch has no receiver to own one: calls
// on one P reuse that P's table without a lock, connections with the same
// vocabulary share strings, and the collector empties an idle pool.
var keywordTables = sync.Pool{New: func() any { return new(intern.Table) }}

// DecodeFeedBatch decodes a TFeedBatch payload, reusing dst's backing
// array when it is large enough. The objects' keyword slices are carved
// out of one array allocated per call, which no engine retains once its
// FeedBatch has returned. Equal keywords share one string. A zero-length
// batch is valid (an empty ingest is acknowledged like any other).
func DecodeFeedBatch(payload []byte, dst []stream.Object) ([]stream.Object, error) {
	tab := keywordTables.Get().(*intern.Table)
	defer keywordTables.Put(tab)
	c := &cursor{b: payload, intern: tab}
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if int64(n)*objectWireMin > int64(c.remain()) {
		return nil, errMalformed("batch declares %d objects, only %d bytes remain", n, c.remain())
	}
	if cap(dst) >= int(n) {
		dst = dst[:n]
	} else {
		dst = make([]stream.Object, n)
	}
	c.kws = make([]string, keywordCount(*c, n))
	for i := range dst {
		if err := decodeObject(c, &dst[i]); err != nil {
			return nil, err
		}
	}
	return dst, c.done()
}

// ---- queries ----

const queryHasRange = 1 << 0

func appendQuery(buf []byte, q *stream.Query) []byte {
	var flags byte
	if q.HasRange {
		flags |= queryHasRange
	}
	buf = append(buf, flags)
	if q.HasRange {
		buf = appendF64(buf, q.Range.MinX)
		buf = appendF64(buf, q.Range.MinY)
		buf = appendF64(buf, q.Range.MaxX)
		buf = appendF64(buf, q.Range.MaxY)
	}
	buf = appendU64(buf, uint64(q.Timestamp))
	buf = appendU16(buf, uint16(len(q.Keywords)))
	for _, kw := range q.Keywords {
		buf = appendU16(buf, uint16(len(kw)))
		buf = append(buf, kw...)
	}
	return buf
}

// queryWireMin is the smallest possible encoded query (no range, no
// keywords).
const queryWireMin = 1 + 8 + 2

func decodeQuery(c *cursor, q *stream.Query) error {
	if c.remain() < 1 {
		return errMalformed("truncated query at offset %d", c.off)
	}
	flags := c.b[c.off]
	c.off++
	if flags&^queryHasRange != 0 {
		return errMalformed("unknown query flags 0x%02x", flags)
	}
	q.HasRange = flags&queryHasRange != 0
	q.Range = geo.Rect{}
	var err error
	if q.HasRange {
		if q.Range.MinX, err = c.f64(); err != nil {
			return err
		}
		if q.Range.MinY, err = c.f64(); err != nil {
			return err
		}
		if q.Range.MaxX, err = c.f64(); err != nil {
			return err
		}
		if q.Range.MaxY, err = c.f64(); err != nil {
			return err
		}
	}
	ts, err := c.u64()
	if err != nil {
		return err
	}
	q.Timestamp = int64(ts)
	nkw, err := c.u16()
	if err != nil {
		return err
	}
	if int(nkw)*2 > c.remain() {
		return errMalformed("query declares %d keywords, only %d bytes remain", nkw, c.remain())
	}
	if cap(q.Keywords) >= int(nkw) {
		q.Keywords = q.Keywords[:nkw]
	} else {
		q.Keywords = make([]string, nkw)
	}
	for i := range q.Keywords {
		if q.Keywords[i], err = c.str(); err != nil {
			return err
		}
	}
	return nil
}

// AppendEstimate appends a complete TEstimate frame. deadline is the
// request's relative latency budget (0 = none).
func AppendEstimate(buf []byte, id uint64, deadlineMS uint32, q *stream.Query) []byte {
	return appendFrame(buf, TEstimate, id, func(b []byte) []byte {
		b = appendU32(b, deadlineMS)
		return appendQuery(b, q)
	})
}

// DecodeEstimate decodes a TEstimate payload.
func DecodeEstimate(payload []byte) (deadlineMS uint32, q stream.Query, err error) {
	c := &cursor{b: payload}
	if deadlineMS, err = c.u32(); err != nil {
		return 0, q, err
	}
	if err = decodeQuery(c, &q); err != nil {
		return 0, q, err
	}
	return deadlineMS, q, c.done()
}

// AppendQueryBatch appends a complete TQueryBatch frame.
func AppendQueryBatch(buf []byte, id uint64, deadlineMS uint32, qs []stream.Query) []byte {
	return appendFrame(buf, TQueryBatch, id, func(b []byte) []byte {
		b = appendU32(b, deadlineMS)
		b = appendU32(b, uint32(len(qs)))
		for i := range qs {
			b = appendQuery(b, &qs[i])
		}
		return b
	})
}

// DecodeQueryBatch decodes a TQueryBatch payload into dst.
func DecodeQueryBatch(payload []byte, dst []stream.Query) (deadlineMS uint32, qs []stream.Query, err error) {
	c := &cursor{b: payload}
	if deadlineMS, err = c.u32(); err != nil {
		return 0, nil, err
	}
	n, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	if int64(n)*queryWireMin > int64(c.remain()) {
		return 0, nil, errMalformed("batch declares %d queries, only %d bytes remain", n, c.remain())
	}
	if cap(dst) >= int(n) {
		dst = dst[:n]
	} else {
		dst = make([]stream.Query, n)
	}
	for i := range dst {
		if err := decodeQuery(c, &dst[i]); err != nil {
			return 0, nil, err
		}
	}
	return deadlineMS, dst, c.done()
}

// ---- simple frames ----

// AppendPing appends a TPing frame.
func AppendPing(buf []byte, id uint64) []byte { return appendFrame(buf, TPing, id, nil) }

// AppendPong appends a TPong frame.
func AppendPong(buf []byte, id uint64) []byte { return appendFrame(buf, TPong, id, nil) }

// AppendAck appends a TAck frame acknowledging accepted objects.
func AppendAck(buf []byte, id uint64, accepted uint32) []byte {
	return appendFrame(buf, TAck, id, func(b []byte) []byte { return appendU32(b, accepted) })
}

// DecodeAck decodes a TAck payload.
func DecodeAck(payload []byte) (uint32, error) {
	c := &cursor{b: payload}
	n, err := c.u32()
	if err != nil {
		return 0, err
	}
	return n, c.done()
}

// AppendEstimateResult appends a TEstimateResult frame.
func AppendEstimateResult(buf []byte, id uint64, estimate float64) []byte {
	return appendFrame(buf, TEstimateResult, id, func(b []byte) []byte { return appendF64(b, estimate) })
}

// DecodeEstimateResult decodes a TEstimateResult payload.
func DecodeEstimateResult(payload []byte) (float64, error) {
	c := &cursor{b: payload}
	v, err := c.f64()
	if err != nil {
		return 0, err
	}
	return v, c.done()
}

// AppendQueryBatchResult appends a TQueryBatchResult frame. estimates and
// actuals must be the same length.
func AppendQueryBatchResult(buf []byte, id uint64, estimates []float64, actuals []int) []byte {
	return appendFrame(buf, TQueryBatchResult, id, func(b []byte) []byte {
		b = appendU32(b, uint32(len(estimates)))
		for i := range estimates {
			b = appendF64(b, estimates[i])
			b = appendU64(b, uint64(int64(actuals[i])))
		}
		return b
	})
}

// DecodeQueryBatchResult decodes a TQueryBatchResult payload, reusing the
// destination slices when large enough.
func DecodeQueryBatchResult(payload []byte, dstE []float64, dstA []int) ([]float64, []int, error) {
	c := &cursor{b: payload}
	n, err := c.u32()
	if err != nil {
		return nil, nil, err
	}
	if int64(n)*16 > int64(c.remain()) {
		return nil, nil, errMalformed("result declares %d entries, only %d bytes remain", n, c.remain())
	}
	if cap(dstE) >= int(n) {
		dstE = dstE[:n]
	} else {
		dstE = make([]float64, n)
	}
	if cap(dstA) >= int(n) {
		dstA = dstA[:n]
	} else {
		dstA = make([]int, n)
	}
	for i := 0; i < int(n); i++ {
		if dstE[i], err = c.f64(); err != nil {
			return nil, nil, err
		}
		a, err := c.u64()
		if err != nil {
			return nil, nil, err
		}
		dstA[i] = int(int64(a))
	}
	return dstE, dstA, c.done()
}

// AppendError appends a TError frame.
func AppendError(buf []byte, id uint64, code Code, retryAfterMS uint32, msg string) []byte {
	return appendFrame(buf, TError, id, func(b []byte) []byte {
		b = appendU16(b, uint16(code))
		b = appendU32(b, retryAfterMS)
		if len(msg) > math.MaxUint16 {
			msg = msg[:math.MaxUint16]
		}
		b = appendU16(b, uint16(len(msg)))
		return append(b, msg...)
	})
}

// DecodeError decodes a TError payload into a RemoteError.
func DecodeError(payload []byte) (*RemoteError, error) {
	c := &cursor{b: payload}
	code, err := c.u16()
	if err != nil {
		return nil, err
	}
	retryMS, err := c.u32()
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
	return &RemoteError{
		Code:       Code(code),
		RetryAfter: time.Duration(retryMS) * time.Millisecond,
		Msg:        msg,
	}, nil
}
