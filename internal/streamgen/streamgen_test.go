package streamgen

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
)

const sample = `package demo

// Position mirrors the paper's Figure 3 declarations.
type Position struct {
	X, Y, Z float64
}

// ParticleList is the element class of the example grid.
type ParticleList struct {
	NumberOfParticles int
	Mass              []float64
	Positions         []Position
	Tag               string
	Active            bool
	Raw               []byte
	Counts            [3]int32
	Next              *ParticleList
	Lookup            map[string]int
}
`

func gen(t *testing.T, src string, opts Options) string {
	t.Helper()
	out, err := Generate([]byte(src), "demo.go", opts)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestGeneratedCodeParses(t *testing.T) {
	out := gen(t, sample, Options{})
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "demo_streams.go", out, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, out)
	}
}

func TestScalarAndSliceFields(t *testing.T) {
	out := gen(t, sample, Options{Types: []string{"ParticleList"}})
	for _, want := range []string{
		"func (v *ParticleList) StreamInsert(e *dstream.Encoder)",
		"func (v *ParticleList) StreamExtract(d *dstream.Decoder)",
		"e.Int64(int64(v.NumberOfParticles))",
		"v.NumberOfParticles = int(d.Int64())",
		"e.Float64Slice(v.Mass)",
		"v.Mass = d.Float64Slice()",
		"e.String(v.Tag)",
		"e.Bool(v.Active)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n%s", want, out)
		}
	}
}

func TestNestedStructRecursion(t *testing.T) {
	out := gen(t, sample, Options{})
	// Positions is a slice of a struct that itself gets generated methods:
	// a length prefix plus a per-element StreamInsert call.
	for _, want := range []string{
		"e.Uint32(uint32(len(v.Positions)))",
		"x.StreamInsert(e)",
		"func (v *Position) StreamInsert(e *dstream.Encoder)",
		"e.Float64(v.X)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n%s", want, out)
		}
	}
}

func TestFixedArray(t *testing.T) {
	out := gen(t, sample, Options{})
	if !strings.Contains(out, "for i := range v.Counts") {
		t.Errorf("fixed array not looped:\n%s", out)
	}
	if strings.Contains(out, "uint32(len(v.Counts))") {
		t.Errorf("fixed array got a length prefix:\n%s", out)
	}
}

// TestPointerAndMapBecomeTODOs: the §4.2 behaviour — pointer-bearing fields
// produce comments for the programmer, not code.
func TestPointerAndMapBecomeTODOs(t *testing.T) {
	out := gen(t, sample, Options{})
	for _, want := range []string{
		"TODO(streamgen): field Next (*ParticleList): pointer field",
		"TODO(streamgen): field Lookup (map[string]int): map field",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing placeholder %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "v.Next.StreamInsert") {
		t.Error("pointer field generated code instead of a TODO")
	}
}

func TestTypeFilter(t *testing.T) {
	out := gen(t, sample, Options{Types: []string{"Position"}})
	if strings.Contains(out, "ParticleList") {
		t.Errorf("filter leaked other types:\n%s", out)
	}
	if _, err := Generate([]byte(sample), "demo.go", Options{Types: []string{"NoSuch"}}); err == nil {
		t.Error("filter with no matches succeeded")
	}
}

func TestNoStructsError(t *testing.T) {
	if _, err := Generate([]byte("package p\nvar X int\n"), "p.go", Options{}); err == nil {
		t.Error("file without structs accepted")
	}
	if _, err := Generate([]byte("not go at all"), "p.go", Options{}); err == nil {
		t.Error("unparseable file accepted")
	}
}

func TestTypeNames(t *testing.T) {
	names, err := TypeNames([]byte(sample), "demo.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "ParticleList" || names[1] != "Position" {
		t.Fatalf("TypeNames = %v", names)
	}
}

func TestCustomImportPath(t *testing.T) {
	out := gen(t, sample, Options{DStreamImport: "example.com/alt/dstream"})
	if !strings.Contains(out, `"example.com/alt/dstream"`) {
		t.Errorf("custom import not used:\n%s", out)
	}
}

// TestRegeneratesSCFSegment: running the generator over the real
// internal/scf source must produce exactly the operation sequence the
// handwritten (committed) methods perform — proving the committed methods
// are what the tool would generate, as DESIGN.md claims.
func TestRegeneratesSCFSegment(t *testing.T) {
	src, err := os.ReadFile("../scf/scf.go")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(src, "scf.go", Options{Types: []string{"Segment"}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	wantInOrder := []string{
		"func (v *Segment) StreamInsert(e *dstream.Encoder)",
		"e.Int64(v.NumberOfParticles)",
		"e.Float64Slice(v.X)",
		"e.Float64Slice(v.Y)",
		"e.Float64Slice(v.Z)",
		"e.Float64Slice(v.VX)",
		"e.Float64Slice(v.VY)",
		"e.Float64Slice(v.VZ)",
		"e.Float64Slice(v.Mass)",
		"func (v *Segment) StreamExtract(d *dstream.Decoder)",
		"v.NumberOfParticles = d.Int64()",
		"v.X = d.Float64Slice()",
		"v.Mass = d.Float64Slice()",
	}
	pos := 0
	for _, w := range wantInOrder {
		i := strings.Index(s[pos:], w)
		if i < 0 {
			t.Fatalf("generated Segment code missing (or out of order) %q\n%s", w, s)
		}
		pos += i
	}
	if strings.Contains(s, "TODO(streamgen): field") {
		t.Fatalf("Segment generation produced TODOs:\n%s", s)
	}
}

func TestEmbeddedField(t *testing.T) {
	src := `package p
type Base struct{ A int64 }
type Derived struct {
	Base
	B float64
}
`
	out := gen(t, src, Options{})
	if !strings.Contains(out, "v.Base.StreamInsert(e)") {
		t.Errorf("embedded field not delegated:\n%s", out)
	}
}

func TestGenerateDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("types.go", "package p\n\ntype A struct{ X int64 }\n")
	write("more.go", "package p\n\ntype B struct{ Y []float64 }\n")
	write("plain.go", "package p\n\nfunc F() {}\n")                 // no structs: skipped
	write("types_test.go", "package p\n\ntype T struct{ Z int }\n") // test file: skipped
	write("old_streams.go", "package p\n")                          // generated: skipped

	written, err := GenerateDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 {
		t.Fatalf("wrote %d files (%v), want 2", len(written), written)
	}
	for _, w := range written {
		b, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "StreamInsert") {
			t.Fatalf("%s lacks generated methods", w)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "plain_streams.go")); !os.IsNotExist(err) {
		t.Fatal("companion generated for struct-free file")
	}
	if _, err := os.Stat(filepath.Join(dir, "types_test_streams.go")); !os.IsNotExist(err) {
		t.Fatal("companion generated for test file")
	}
}

func TestGenerateDirNoMatches(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte("package p\nfunc F(){}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateDir(dir, Options{}); err == nil {
		t.Fatal("directory without structs accepted")
	}
	if _, err := GenerateDir(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestSchemaForSegment(t *testing.T) {
	src, err := os.ReadFile("../scf/scf.go")
	if err != nil {
		t.Fatal(err)
	}
	got, err := SchemaFor(src, "scf.go", "Segment")
	if err != nil {
		t.Fatal(err)
	}
	want := "numberOfParticles:i64,x:f64[],y:f64[],z:f64[],vX:f64[],vY:f64[],vZ:f64[],mass:f64[]"
	if got != want {
		t.Fatalf("schema = %q, want %q", got, want)
	}
}

func TestSchemaForRejectsUnsupported(t *testing.T) {
	if _, err := SchemaFor([]byte(sample), "demo.go", "ParticleList"); err == nil {
		t.Fatal("struct with pointer/map fields produced a schema")
	}
	if _, err := SchemaFor([]byte(sample), "demo.go", "NoSuch"); err == nil {
		t.Fatal("missing type produced a schema")
	}
}

const fixedWidthSrc = `package demo

type Samples struct {
	F32 []float32
	I32 []int32
	U32 []uint32
	U64 []uint64
}

type Track struct {
	Points []Point
}

type Point struct{ X, Y float64 }
`

// samples and track carry, statement for statement, the methods streamgen
// generates for fixedWidthSrc's Samples and Track; TestFixedWidthSliceFields
// checks each statement against the generator's output.
type samples struct {
	F32 []float32
	I32 []int32
	U32 []uint32
	U64 []uint64
}

func (v *samples) StreamInsert(e *dstream.Encoder) {
	e.Float32Slice(v.F32)
	e.Int32Slice(v.I32)
	e.Uint32Slice(v.U32)
	e.Uint64Slice(v.U64)
}

func (v *samples) StreamExtract(d *dstream.Decoder) {
	v.F32 = d.Float32Slice()
	v.I32 = d.Int32Slice()
	v.U32 = d.Uint32Slice()
	v.U64 = d.Uint64Slice()
}

type point struct{ X, Y float64 }

func (v *point) StreamExtract(d *dstream.Decoder) {
	v.X = d.Float64()
	v.Y = d.Float64()
}

type track struct{ Points []point }

func (v *track) StreamExtract(d *dstream.Decoder) {
	n := d.SliceLen(1)
	v.Points = make([]point, n)
	for i := range v.Points {
		v.Points[i].StreamExtract(d)
	}
}

func TestFixedWidthSliceFields(t *testing.T) {
	out := gen(t, fixedWidthSrc, Options{})
	for _, want := range []string{
		"e.Float32Slice(v.F32)", "e.Int32Slice(v.I32)", "e.Uint32Slice(v.U32)", "e.Uint64Slice(v.U64)",
		"v.F32 = d.Float32Slice()", "v.I32 = d.Int32Slice()", "v.U32 = d.Uint32Slice()", "v.U64 = d.Uint64Slice()",
		"n := d.SliceLen(1)\n\tv.Points = make([]Point, n)\n\tfor i := range v.Points {\n\t\tv.Points[i].StreamExtract(d)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n%s", want, out)
		}
	}

	// The bulk calls write the bytes the per-element loops streamgen
	// emitted before them wrote, and read them back.
	in := samples{
		F32: []float32{1.5, -2, 3.25},
		I32: []int32{-1, 0, 1 << 30},
		U32: []uint32{0, 0xdeadbeef},
		U64: []uint64{1 << 63, 7, 0},
	}
	var e dstream.Encoder
	in.StreamInsert(&e)
	var loop dstream.Encoder
	loop.Uint32(uint32(len(in.F32)))
	for _, x := range in.F32 {
		loop.Float32(x)
	}
	loop.Uint32(uint32(len(in.I32)))
	for _, x := range in.I32 {
		loop.Int32(x)
	}
	loop.Uint32(uint32(len(in.U32)))
	for _, x := range in.U32 {
		loop.Uint32(x)
	}
	loop.Uint32(uint32(len(in.U64)))
	for _, x := range in.U64 {
		loop.Uint64(x)
	}
	if !bytes.Equal(e.Bytes(), loop.Bytes()) {
		t.Fatalf("bulk encoding % x differs from the per-element loop % x", e.Bytes(), loop.Bytes())
	}
	var got samples
	d := enc.NewReader(e.Bytes())
	got.StreamExtract(d)
	if d.Err() != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip = %+v (err %v), want %+v", got, d.Err(), in)
	}
}

// TestGeneratedLoopBoundsCount: a generated element loop fed a count of
// 0xFFFFFFFF fails with ErrShort after a bounded allocation instead of
// making a slice of four billion elements.
func TestGeneratedLoopBoundsCount(t *testing.T) {
	input := []byte{0xff, 0xff, 0xff, 0xff}
	var d dstream.Decoder
	extract := func() {
		var v track
		d.Reset(input)
		v.StreamExtract(&d)
	}
	extract()
	if !errors.Is(d.Err(), enc.ErrShort) {
		t.Fatalf("Err = %v, want ErrShort", d.Err())
	}
	if allocs := testing.AllocsPerRun(20, extract); allocs > 8 {
		t.Fatalf("%.1f allocations per corrupt extract", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		extract()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 20; b > 1<<10 {
		t.Fatalf("%d bytes allocated per corrupt extract", b)
	}
}
