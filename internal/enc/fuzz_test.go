package enc

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzRoundTrip: whatever a Buffer encodes, a Reader decodes back exactly —
// the wire-format property the whole d/stream file format leans on.
func FuzzRoundTrip(f *testing.F) {
	f.Add(true, uint32(0), uint64(0), 0.0, "", []byte(nil), uint8(0))
	f.Add(false, uint32(1), uint64(1<<63), -1.5, "hello", []byte{1, 2, 3}, uint8(3))
	f.Add(true, uint32(0xffffffff), uint64(0xffffffffffffffff), math.Inf(1), "κ…\x00", []byte{0}, uint8(17))
	f.Add(false, uint32(42), uint64(7), math.NaN(), "nan payload", []byte("bytes"), uint8(255))
	f.Fuzz(func(t *testing.T, b bool, u32 uint32, u64 uint64, f64 float64, s string, raw []byte, n uint8) {
		fslice := make([]float64, int(n)%9)
		islice := make([]int64, int(n)%5)
		uslice := make([]uint64, int(n)%7)
		f32slice := make([]float32, int(n)%11)
		i32slice := make([]int32, int(n)%6)
		u32slice := make([]uint32, int(n)%3)
		for i := range fslice {
			fslice[i] = f64 * float64(i+1)
		}
		for i := range islice {
			islice[i] = int64(u64) - int64(i)
		}
		for i := range uslice {
			uslice[i] = u64 ^ uint64(i)
		}
		for i := range f32slice {
			f32slice[i] = float32(f64) * float32(i+1)
		}
		for i := range i32slice {
			i32slice[i] = int32(u32) - int32(i)
		}
		for i := range u32slice {
			u32slice[i] = u32 ^ uint32(i)
		}

		var e Buffer
		e.Bool(b)
		e.Uint32(u32)
		e.Uint64(u64)
		e.Int32(int32(u32))
		e.Int64(int64(u64))
		e.Float64(f64)
		e.Float32(float32(f64))
		e.String(s)
		e.Bytes32(raw)
		e.Float64Slice(fslice)
		e.Int64Slice(islice)
		e.Uint64Slice(uslice)
		e.Float32Slice(f32slice)
		e.Int32Slice(i32slice)
		e.Uint32Slice(u32slice)
		e.Uint32(uint32(len(raw))) // a hand-rolled count for SliceLen
		e.Raw(raw)

		d := NewReader(e.Bytes())
		if got := d.Bool(); got != b {
			t.Fatalf("Bool = %v, want %v", got, b)
		}
		if got := d.Uint32(); got != u32 {
			t.Fatalf("Uint32 = %d, want %d", got, u32)
		}
		if got := d.Uint64(); got != u64 {
			t.Fatalf("Uint64 = %d, want %d", got, u64)
		}
		if got := d.Int32(); got != int32(u32) {
			t.Fatalf("Int32 = %d, want %d", got, int32(u32))
		}
		if got := d.Int64(); got != int64(u64) {
			t.Fatalf("Int64 = %d, want %d", got, int64(u64))
		}
		if got := d.Float64(); math.Float64bits(got) != math.Float64bits(f64) {
			t.Fatalf("Float64 = %v, want %v", got, f64)
		}
		if got := d.Float32(); math.Float32bits(got) != math.Float32bits(float32(f64)) {
			t.Fatalf("Float32 = %v, want %v", got, float32(f64))
		}
		if got := d.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
		if got := d.Bytes32(); !bytes.Equal(got, raw) {
			t.Fatalf("Bytes32 = %q, want %q", got, raw)
		}
		gf := d.Float64Slice()
		if len(gf) != len(fslice) {
			t.Fatalf("Float64Slice len = %d, want %d", len(gf), len(fslice))
		}
		for i := range gf {
			if math.Float64bits(gf[i]) != math.Float64bits(fslice[i]) {
				t.Fatalf("Float64Slice[%d] = %v, want %v", i, gf[i], fslice[i])
			}
		}
		gi := d.Int64Slice()
		if len(gi) != len(islice) {
			t.Fatalf("Int64Slice len = %d, want %d", len(gi), len(islice))
		}
		for i := range gi {
			if gi[i] != islice[i] {
				t.Fatalf("Int64Slice[%d] = %d, want %d", i, gi[i], islice[i])
			}
		}
		if got := d.Uint64Slice(); !slices.Equal(got, uslice) {
			t.Fatalf("Uint64Slice = %v, want %v", got, uslice)
		}
		gf32 := d.Float32Slice()
		if len(gf32) != len(f32slice) {
			t.Fatalf("Float32Slice len = %d, want %d", len(gf32), len(f32slice))
		}
		for i := range gf32 {
			if math.Float32bits(gf32[i]) != math.Float32bits(f32slice[i]) {
				t.Fatalf("Float32Slice[%d] = %v, want %v", i, gf32[i], f32slice[i])
			}
		}
		if got := d.Int32Slice(); !slices.Equal(got, i32slice) {
			t.Fatalf("Int32Slice = %v, want %v", got, i32slice)
		}
		if got := d.Uint32Slice(); !slices.Equal(got, u32slice) {
			t.Fatalf("Uint32Slice = %v, want %v", got, u32slice)
		}
		if got := d.SliceLen(1); got != len(raw) {
			t.Fatalf("SliceLen(1) = %d, want %d", got, len(raw))
		}
		if got := d.Raw(len(raw)); !bytes.Equal(got, raw) {
			t.Fatalf("Raw after SliceLen = %q, want %q", got, raw)
		}
		if err := d.Err(); err != nil {
			t.Fatalf("reader error after clean round trip: %v", err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%d bytes left over after round trip", d.Remaining())
		}
	})
}

// FuzzReaderNeverPanics drives a Reader over arbitrary bytes with an
// arbitrary script of decode calls: no input may panic it, offsets must stay
// in bounds, and once it errors the error must stick.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte{1, 2, 3}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{9, 9, 10, 10})
	f.Add([]byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{11, 12, 13, 14, 15, 31, 143})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		d := NewReader(data)
		for _, op := range script {
			hadErr := d.Err() != nil
			switch op % 16 {
			case 0:
				d.Bool()
			case 1:
				d.Uint32()
			case 2:
				d.Uint64()
			case 3:
				d.Int32()
			case 4:
				d.Int64()
			case 5:
				d.Float32()
			case 6:
				d.Float64()
			case 7:
				_ = d.String()
			case 8:
				d.Bytes32()
			case 9:
				d.Float64Slice()
			case 10:
				d.Int64Slice()
			case 11:
				d.Uint64Slice()
			case 12:
				d.Float32Slice()
			case 13:
				d.Int32Slice()
			case 14:
				d.Uint32Slice()
			case 15:
				d.SliceLen(int(op>>4) % 9) // 15, 31, …: widths 0 to 8
			}
			if hadErr && d.Err() == nil {
				t.Fatal("reader error un-stuck itself")
			}
			if d.Offset() < 0 || d.Offset() > len(data) {
				t.Fatalf("offset %d out of bounds [0,%d]", d.Offset(), len(data))
			}
			if d.Remaining() < 0 {
				t.Fatalf("negative remaining %d", d.Remaining())
			}
		}
	})
}

// FuzzRecordHeader: arbitrary bytes never panic the record-header decoder,
// and any header it accepts is a fixed point of encode∘decode.
func FuzzRecordHeader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeFileHeader())
	h := RecordHeader{NArrays: 2, NElems: 9, NProcs: 4, Mode: 1, DataBytes: 1 << 20}
	f.Add(h.Encode())
	f.Add(h.Encode()[:RecordHeaderLen-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeRecordHeader(data)
		if err != nil {
			return
		}
		again, err := DecodeRecordHeader(h.Encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted header failed: %v", err)
		}
		if again != h {
			t.Fatalf("decode∘encode not idempotent: %+v vs %+v", again, h)
		}
		if h.TotalBytes() < RecordHeaderLen {
			t.Fatalf("TotalBytes %d below header length", h.TotalBytes())
		}
	})
}
