// Package enc defines the d/stream binary encodings: the little-endian
// typed buffer encoder/decoder used by element inserters and extractors,
// and the on-disk record header carrying the distribution and per-element
// size information the library stores ahead of the data (paper §4.1:
// "Information about the distribution ... and about the size of the data to
// be output from each element needs to be written to the file prior to the
// actual data").
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Buffer is an append-only typed encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// Bytes returns the encoded bytes (aliasing the internal buffer).
func (e *Buffer) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
func (e *Buffer) Len() int { return len(e.b) }

// Reset clears the buffer, retaining capacity.
func (e *Buffer) Reset() { e.b = e.b[:0] }

// Uint32 appends v.
func (e *Buffer) Uint32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

// Uint64 appends v.
func (e *Buffer) Uint64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// Int32 appends v.
func (e *Buffer) Int32(v int32) { e.Uint32(uint32(v)) }

// Int64 appends v.
func (e *Buffer) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool appends v as one byte.
func (e *Buffer) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float64 appends v.
func (e *Buffer) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Float32 appends v.
func (e *Buffer) Float32(v float32) { e.Uint32(math.Float32bits(v)) }

// Raw appends p verbatim.
func (e *Buffer) Raw(p []byte) { e.b = append(e.b, p...) }

// Bytes32 appends p with a u32 length prefix.
func (e *Buffer) Bytes32(p []byte) {
	e.Uint32(uint32(len(p)))
	e.Raw(p)
}

// String appends s with a u32 length prefix.
func (e *Buffer) String(s string) {
	e.Uint32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// The fixed-width slice codecs below write a u32 length prefix followed by
// the values, little-endian — byte for byte what a per-element loop of the
// scalar encoders writes. Each grows the buffer once and fills it in place.

// Float64Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Float64Slice(v []float64) {
	p := e.grow(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(p, math.Float64bits(x))
		p = p[8:]
	}
}

// Int64Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Int64Slice(v []int64) {
	p := e.grow(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(p, uint64(x))
		p = p[8:]
	}
}

// Uint64Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Uint64Slice(v []uint64) {
	p := e.grow(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(p, x)
		p = p[8:]
	}
}

// Float32Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Float32Slice(v []float32) {
	p := e.grow(len(v), 4)
	for _, x := range v {
		binary.LittleEndian.PutUint32(p, math.Float32bits(x))
		p = p[4:]
	}
}

// Int32Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Int32Slice(v []int32) {
	p := e.grow(len(v), 4)
	for _, x := range v {
		binary.LittleEndian.PutUint32(p, uint32(x))
		p = p[4:]
	}
}

// Uint32Slice appends a u32 length prefix followed by the values.
func (e *Buffer) Uint32Slice(v []uint32) {
	p := e.grow(len(v), 4)
	for _, x := range v {
		binary.LittleEndian.PutUint32(p, x)
		p = p[4:]
	}
}

// grow appends the u32 count n, extends the buffer by n values of width
// bytes in one step, and returns the extension for the caller to fill.
func (e *Buffer) grow(n, width int) []byte {
	e.Uint32(uint32(n))
	off := len(e.b)
	e.b = slices.Grow(e.b, n*width)[:off+n*width]
	return e.b[off:]
}

// ErrShort reports a decode past the end of the buffer.
var ErrShort = errors.New("enc: short buffer")

// Reader is a sequential typed decoder with sticky error state: after the
// first failure every further Get returns the zero value and Err() reports
// the failure, so extractors can decode unconditionally and check once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader decodes from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset repoints the reader at b, clearing position and error state, so a
// single Reader can decode a stream of records without per-record
// allocation.
func (d *Reader) Reset(b []byte) {
	d.b = b
	d.off = 0
	d.err = nil
}

// Err returns the first decode error, if any.
func (d *Reader) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Reader) Remaining() int { return len(d.b) - d.off }

// Offset returns the current read position.
func (d *Reader) Offset() int { return d.off }

func (d *Reader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShort, n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Uint32 decodes a u32.
func (d *Reader) Uint32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 decodes a u64.
func (d *Reader) Uint64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int32 decodes an i32.
func (d *Reader) Int32() int32 { return int32(d.Uint32()) }

// Int64 decodes an i64.
func (d *Reader) Int64() int64 { return int64(d.Uint64()) }

// Bool decodes one byte as a bool.
func (d *Reader) Bool() bool {
	p := d.take(1)
	return p != nil && p[0] != 0
}

// Float64 decodes an f64.
func (d *Reader) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Float32 decodes an f32.
func (d *Reader) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Raw decodes n raw bytes (aliasing the underlying buffer).
func (d *Reader) Raw(n int) []byte { return d.take(n) }

// Bytes32 decodes a u32-length-prefixed byte slice (copied).
func (d *Reader) Bytes32() []byte {
	n := int(d.Uint32())
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// String decodes a u32-length-prefixed string.
func (d *Reader) String() string {
	n := int(d.Uint32())
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// SliceLen decodes a u32 element count and bounds it by the undecoded
// bytes: elemBytes is the fewest bytes one element encodes to, and a count
// whose elements could not fit in what is left sets the sticky ErrShort and
// returns 0. Extractors size their slices by it, so a corrupt prefix fails
// cleanly instead of allocating up to 4 G elements.
func (d *Reader) SliceLen(elemBytes int) int {
	n := d.Uint32()
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemBytes) > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: %d elements of %d bytes at offset %d of %d", ErrShort, n, elemBytes, d.off, len(d.b))
		return 0
	}
	return int(n)
}

// fixed decodes the count of a slice of width-byte values and takes all
// of its bytes at once, so the caller allocates only after the whole
// slice is known to be present. p is nil on failure.
func (d *Reader) fixed(width int) (p []byte, n int) {
	n = d.SliceLen(width)
	return d.take(n * width), n
}

// Float64Slice decodes a u32-length-prefixed []float64.
func (d *Reader) Float64Slice() []float64 {
	p, n := d.fixed(8)
	if p == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return out
}

// Int64Slice decodes a u32-length-prefixed []int64.
func (d *Reader) Int64Slice() []int64 {
	p, n := d.fixed(8)
	if p == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return out
}

// Uint64Slice decodes a u32-length-prefixed []uint64.
func (d *Reader) Uint64Slice() []uint64 {
	p, n := d.fixed(8)
	if p == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	return out
}

// Float32Slice decodes a u32-length-prefixed []float32.
func (d *Reader) Float32Slice() []float32 {
	p, n := d.fixed(4)
	if p == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p))
		p = p[4:]
	}
	return out
}

// Int32Slice decodes a u32-length-prefixed []int32.
func (d *Reader) Int32Slice() []int32 {
	p, n := d.fixed(4)
	if p == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p))
		p = p[4:]
	}
	return out
}

// Uint32Slice decodes a u32-length-prefixed []uint32.
func (d *Reader) Uint32Slice() []uint32 {
	p, n := d.fixed(4)
	if p == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p)
		p = p[4:]
	}
	return out
}
