package persist

import (
	"encoding/binary"
	"math"

	"github.com/spatiotext/latest/internal/intern"
)

// codec.go holds the binary primitives every state encoder in the
// repository shares: little-endian fixed-width integers, IEEE-754 floats,
// length-prefixed strings and byte blobs, and homogeneous slices. The
// decoder is sticky-error and bounds-checked so a corrupted or adversarial
// payload can neither panic nor force a huge allocation: every
// length-prefixed read is validated against the bytes actually remaining.

// Enc appends binary values to a growing buffer. The zero value is ready
// to use.
type Enc struct {
	b []byte
}

// Data returns the encoded bytes.
func (e *Enc) Data() []byte { return e.b }

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends an IEEE-754 double, bit-exact.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed UTF-8 string (u32 length).
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a length-prefixed byte slice (u32 length).
func (e *Enc) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// F64s appends a length-prefixed []float64.
func (e *Enc) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// U32s appends a length-prefixed []uint32.
func (e *Enc) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(v)
	}
}

// Strs appends a length-prefixed []string.
func (e *Enc) Strs(vs []string) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.Str(v)
	}
}

// Dec reads binary values from a buffer with a sticky error: the first
// failed read poisons the decoder and every later read returns the zero
// value. Callers check Err (or Done) once at the end instead of after
// every field.
type Dec struct {
	b   []byte
	off int
	err error
	// strs shares equal strings among the string lists this decoder reads
	// (keyword lists, overwhelmingly); allocated at the first one.
	strs *intern.Table
}

// NewDec wraps data for decoding.
func NewDec(data []byte) *Dec { return &Dec{b: data} }

// Reset points the decoder at new data and clears its error, keeping the
// strings it shares: a caller decoding many small records reuses one Dec.
func (d *Dec) Reset(data []byte) { d.b, d.off, d.err = data, 0, nil }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns how many bytes are left to read.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Done returns the sticky error, or a typed malformed error when bytes
// remain unread — a section must be consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return Errf(CodeMalformed, "decode", "%d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// fail poisons the decoder.
func (d *Dec) fail(op string) {
	if d.err == nil {
		d.err = Errf(CodeTruncated, "decode", "%s past end at offset %d", op, d.off)
	}
}

// take returns the next n bytes, or nil after poisoning the decoder.
func (d *Dec) take(n int, op string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(op)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	p := d.take(1, "u8")
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a bool.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	p := d.take(2, "u16")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	p := d.take(4, "u32")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	p := d.take(8, "u64")
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads an IEEE-754 double.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// length reads a u32 length prefix and validates that `unit` bytes per
// element still fit in the remaining buffer, bounding allocations.
func (d *Dec) length(unit int, op string) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*unit > d.Remaining() {
		if d.err == nil {
			d.err = Errf(CodeMalformed, "decode", "%s length %d exceeds %d remaining bytes", op, n, d.Remaining())
		}
		return 0
	}
	return n
}

// strBytes reads a length-prefixed string's bytes, aliasing the buffer.
func (d *Dec) strBytes() []byte {
	return d.take(d.length(1, "string"), "string")
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.strBytes()) }

// Blob reads a length-prefixed byte slice (copied).
func (d *Dec) Blob() []byte {
	n := d.length(1, "blob")
	p := d.take(n, "blob")
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// F64s reads a length-prefixed []float64.
func (d *Dec) F64s() []float64 {
	n := d.length(8, "[]float64")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (d *Dec) I64s() []int64 {
	n := d.length(8, "[]int64")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

// U32s reads a length-prefixed []uint32.
func (d *Dec) U32s() []uint32 {
	n := d.length(4, "[]uint32")
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.U32()
	}
	return out
}

// Strs reads a length-prefixed []string. The slice is the caller's own;
// equal strings read through one decoder share their bytes, so a restore
// or a log replay, which keeps only the words new to its dictionaries,
// allocates a recent keyword once rather than once per object carrying it.
func (d *Dec) Strs() []string {
	n := d.length(4, "[]string")
	if d.err != nil || n == 0 {
		return nil
	}
	if d.strs == nil {
		d.strs = new(intern.Table)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.strs.String(d.strBytes())
	}
	return out
}
