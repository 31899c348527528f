package enc

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	var e Buffer
	e.Uint32(0xDEADBEEF)
	e.Uint64(1 << 60)
	e.Int32(-7)
	e.Int64(-1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.Float64(math.Pi)
	e.Float32(2.5)
	e.String("pC++/streams")
	e.Bytes32([]byte{9, 8, 7})

	d := NewReader(e.Bytes())
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := d.Int32(); got != -7 {
		t.Fatalf("Int32 = %d", got)
	}
	if got := d.Int64(); got != -1<<40 {
		t.Fatalf("Int64 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.Float64(); got != math.Pi {
		t.Fatalf("Float64 = %v", got)
	}
	if got := d.Float32(); got != 2.5 {
		t.Fatalf("Float32 = %v", got)
	}
	if got := d.String(); got != "pC++/streams" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Bytes32 = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	var e Buffer
	f := []float64{1.5, -2.25, math.MaxFloat64, 0}
	i := []int64{-5, 0, 1 << 62}
	e.Float64Slice(f)
	e.Int64Slice(i)
	e.Float64Slice(nil)

	d := NewReader(e.Bytes())
	if got := d.Float64Slice(); !reflect.DeepEqual(got, f) {
		t.Fatalf("Float64Slice = %v", got)
	}
	if got := d.Int64Slice(); !reflect.DeepEqual(got, i) {
		t.Fatalf("Int64Slice = %v", got)
	}
	if got := d.Float64Slice(); len(got) != 0 {
		t.Fatalf("empty slice = %v", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// sliceCodec is one fixed-width slice codec under test, type-erased over
// its element type: enc writes an n-value slice with the bulk encoder, ref
// writes the same values with a per-element loop of the scalar encoder (the
// format's definition), and dec decodes one slice and re-encodes it with
// ref, reporting whether the decoder returned nil.
type sliceCodec struct {
	name     string
	enc, ref func(e *Buffer, n int)
	dec      func(d *Reader, out *Buffer) (isNil bool)
}

func newSliceCodec[T any](name string, val func(i int) T, bulk func(*Buffer, []T),
	scalar func(*Buffer, T), get func(*Reader) []T) sliceCodec {
	values := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = val(i)
		}
		return v
	}
	loop := func(e *Buffer, v []T) {
		e.Uint32(uint32(len(v)))
		for _, x := range v {
			scalar(e, x)
		}
	}
	return sliceCodec{
		name: name,
		enc:  func(e *Buffer, n int) { bulk(e, values(n)) },
		ref:  func(e *Buffer, n int) { loop(e, values(n)) },
		dec: func(d *Reader, out *Buffer) bool {
			v := get(d)
			loop(out, v)
			return v == nil
		},
	}
}

var sliceCodecs = []sliceCodec{
	newSliceCodec("Float64Slice", func(i int) float64 { return float64(i)*1.25 - 7 },
		(*Buffer).Float64Slice, (*Buffer).Float64, (*Reader).Float64Slice),
	newSliceCodec("Int64Slice", func(i int) int64 { return int64(i)*-0x0102030405 + 3 },
		(*Buffer).Int64Slice, (*Buffer).Int64, (*Reader).Int64Slice),
	newSliceCodec("Uint64Slice", func(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 },
		(*Buffer).Uint64Slice, (*Buffer).Uint64, (*Reader).Uint64Slice),
	newSliceCodec("Float32Slice", func(i int) float32 { return float32(i)*0.5 - 3 },
		(*Buffer).Float32Slice, (*Buffer).Float32, (*Reader).Float32Slice),
	newSliceCodec("Int32Slice", func(i int) int32 { return int32(i)*-0x01020305 + 1 },
		(*Buffer).Int32Slice, (*Buffer).Int32, (*Reader).Int32Slice),
	newSliceCodec("Uint32Slice", func(i int) uint32 { return uint32(i) * 0x9E3779B9 },
		(*Buffer).Uint32Slice, (*Buffer).Uint32, (*Reader).Uint32Slice),
}

var sliceLens = []int{0, 1, 7, 100, 65537}

// TestSliceCodecsMatchScalarLoop: every bulk encoder writes exactly the
// bytes of the per-element loop it replaced (the wire format is unchanged),
// after a leading byte so the prefix lands unaligned, and every bulk
// decoder reads them back.
func TestSliceCodecsMatchScalarLoop(t *testing.T) {
	for _, c := range sliceCodecs {
		for _, n := range sliceLens {
			var got, want Buffer
			got.Bool(true)
			want.Bool(true)
			c.enc(&got, n)
			c.ref(&want, n)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s n=%d: bulk bytes differ from the scalar loop", c.name, n)
			}
			d := NewReader(got.Bytes())
			d.Bool()
			var again Buffer
			if c.dec(d, &again) || d.Err() != nil || d.Remaining() != 0 {
				t.Fatalf("%s n=%d: decode failed (err %v, %d left)", c.name, n, d.Err(), d.Remaining())
			}
			if !bytes.Equal(again.Bytes(), want.Bytes()[1:]) {
				t.Fatalf("%s n=%d: round trip changed the values", c.name, n)
			}
		}
	}
}

// TestSliceCodecsTruncated: a slice cut at any byte decodes to nil with a
// sticky ErrShort.
func TestSliceCodecsTruncated(t *testing.T) {
	for _, c := range sliceCodecs {
		for _, n := range sliceLens {
			var e Buffer
			c.enc(&e, n)
			b := e.Bytes()
			var d Reader
			var out Buffer
			for cut := 0; cut < len(b); cut++ {
				d.Reset(b[:cut])
				out.Reset()
				if !c.dec(&d, &out) || !errors.Is(d.Err(), ErrShort) {
					t.Fatalf("%s n=%d cut at %d: got a slice or err %v", c.name, n, cut, d.Err())
				}
				if d.Uint32() != 0 || !errors.Is(d.Err(), ErrShort) {
					t.Fatalf("%s n=%d cut at %d: error did not stick", c.name, n, cut)
				}
			}
		}
	}
}

// TestSliceLenBoundsCount: SliceLen accepts a count whose elements fit in
// the undecoded bytes and fails any other without allocating.
func TestSliceLenBoundsCount(t *testing.T) {
	var e Buffer
	e.Uint32(3)
	e.Raw([]byte{1, 2, 3, 4, 5, 6})
	if n := NewReader(e.Bytes()).SliceLen(2); n != 3 {
		t.Fatalf("SliceLen(2) = %d, want 3", n)
	}
	d := NewReader(e.Bytes())
	if n := d.SliceLen(3); n != 0 || !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("SliceLen(3) = %d, err %v; want 0, ErrShort", n, d.Err())
	}
	if n := d.SliceLen(0); n != 0 {
		t.Fatalf("SliceLen after an error = %d, want 0", n)
	}
	corrupt := []byte{0xff, 0xff, 0xff, 0xff}
	for _, c := range sliceCodecs {
		var out Buffer
		if allocs := testing.AllocsPerRun(20, func() {
			out.Reset()
			c.dec(NewReader(corrupt), &out)
		}); allocs > 8 {
			t.Fatalf("%s: %.1f allocations decoding a corrupt count", c.name, allocs)
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	d := NewReader([]byte{1, 2})
	if got := d.Uint64(); got != 0 {
		t.Fatalf("short Uint64 = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("Err = %v, want ErrShort", d.Err())
	}
	// Error is sticky: subsequent reads keep failing even if bytes remain.
	if got := d.Uint32(); got != 0 {
		t.Fatalf("post-error read = %d", got)
	}
}

func TestReaderShortSlices(t *testing.T) {
	var e Buffer
	e.Uint32(1000) // claims 1000 floats, provides none
	d := NewReader(e.Bytes())
	if got := d.Float64Slice(); got != nil {
		t.Fatalf("truncated slice = %v, want nil", got)
	}
	if !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("Err = %v", d.Err())
	}
	// Huge claimed length must not cause a huge allocation.
	var e2 Buffer
	e2.Uint32(math.MaxUint32)
	d2 := NewReader(e2.Bytes())
	if got := d2.Bytes32(); got != nil {
		t.Fatal("oversized Bytes32 succeeded")
	}
}

func TestBufferReset(t *testing.T) {
	var e Buffer
	e.Uint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	e.Uint32(2)
	d := NewReader(e.Bytes())
	if d.Uint32() != 2 {
		t.Fatal("buffer reuse broken")
	}
}

func TestRawAliasVsCopy(t *testing.T) {
	var e Buffer
	e.Bytes32([]byte("abc"))
	src := e.Bytes()
	d := NewReader(src)
	got := d.Bytes32()
	src[4] = 'X' // mutate underlying buffer after decode
	if string(got) != "abc" {
		t.Fatalf("Bytes32 aliased its source: %q", got)
	}
}

func TestFileHeader(t *testing.T) {
	h := EncodeFileHeader()
	if len(h) != FileHeaderLen {
		t.Fatalf("header len %d, want %d", len(h), FileHeaderLen)
	}
	if err := CheckFileHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := CheckFileHeader(h[:10]); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := append([]byte{}, h...)
	bad[0] = 'X'
	if err := CheckFileHeader(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRecordHeaderRoundTrip(t *testing.T) {
	h := RecordHeader{
		NArrays:     3,
		NElems:      2000,
		NProcs:      8,
		Mode:        2,
		BlockSize:   16,
		AlignOffset: -4,
		AlignStride: 3,
		TemplateN:   6000,
		DataBytes:   11_200_000,
	}
	b := h.Encode()
	if len(b) != RecordHeaderLen {
		t.Fatalf("encoded %d bytes, want %d", len(b), RecordHeaderLen)
	}
	got, err := DecodeRecordHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if got.SizeTableBytes() != 8000 {
		t.Fatalf("SizeTableBytes = %d", got.SizeTableBytes())
	}
	if got.TotalBytes() != 56+8000+11_200_000 {
		t.Fatalf("TotalBytes = %d", got.TotalBytes())
	}
}

func TestRecordHeaderRejects(t *testing.T) {
	if _, err := DecodeRecordHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated record header accepted")
	}
	h := RecordHeader{NElems: 1, NProcs: 1}
	b := h.Encode()
	b[0] ^= 0xFF
	if _, err := DecodeRecordHeader(b); err == nil {
		t.Fatal("bad record magic accepted")
	}
	zeroHdr := RecordHeader{NElems: 1}
	zero := zeroHdr.Encode()
	if _, err := DecodeRecordHeader(zero); err == nil {
		t.Fatal("zero-proc record header accepted")
	}
}

func TestSizeTableRoundTrip(t *testing.T) {
	sizes := []uint32{0, 1, 5604, math.MaxUint32}
	b := EncodeSizeTable(sizes)
	got, err := DecodeSizeTable(b, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sizes) {
		t.Fatalf("got %v", got)
	}
	if _, err := DecodeSizeTable(b, len(sizes)+1); err == nil {
		t.Fatal("oversized decode accepted")
	}
}

// Property: header round trip is identity for arbitrary field values.
func TestRecordHeaderQuick(t *testing.T) {
	f := func(nArr, nEl, bs, tn uint32, np uint16, mode uint8, ao, as int32, db uint64) bool {
		h := RecordHeader{
			NArrays: nArr, NElems: nEl, NProcs: uint32(np) + 1,
			Mode: mode % 3, BlockSize: bs,
			AlignOffset: ao, AlignStride: as, TemplateN: tn,
			DataBytes: db % (1 << 56), // decoder rejects declared sizes past this bound
		}
		got, err := DecodeRecordHeader(h.Encode())
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary scalar scripts round trip.
func TestBufferReaderQuick(t *testing.T) {
	f := func(u32 uint32, i64 int64, fl float64, s string, bs []byte) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		var e Buffer
		e.Uint32(u32)
		e.Int64(i64)
		e.Float64(fl)
		e.String(s)
		e.Bytes32(bs)
		d := NewReader(e.Bytes())
		return d.Uint32() == u32 &&
			d.Int64() == i64 &&
			d.Float64() == fl &&
			d.String() == s &&
			bytes.Equal(d.Bytes32(), bs) &&
			d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func benchFloats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i) * 0.25
	}
	return v
}

// BenchmarkFloat64SliceEncode is the SCF segment's inner loop: one
// 100-value array appended to a reused buffer.
func BenchmarkFloat64SliceEncode(b *testing.B) {
	v := benchFloats(100)
	var e Buffer
	b.SetBytes(4 + 8*int64(len(v)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Float64Slice(v)
	}
}

// BenchmarkFloat64SliceDecode decodes the same array into a new slice.
func BenchmarkFloat64SliceDecode(b *testing.B) {
	var e Buffer
	e.Float64Slice(benchFloats(100))
	var d Reader
	b.SetBytes(int64(e.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Reset(e.Bytes())
		if d.Float64Slice() == nil {
			b.Fatal(d.Err())
		}
	}
}
