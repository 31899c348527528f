package scf

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"pcxxstreams/internal/enc"
)

func TestFillDeterministic(t *testing.T) {
	var a, b Segment
	a.Fill(7, 100)
	b.Fill(7, 100)
	if !a.Equal(&b) {
		t.Fatal("Fill not deterministic")
	}
	var c Segment
	c.Fill(8, 100)
	if a.Equal(&c) {
		t.Fatal("different globals produced identical segments")
	}
}

func TestFillShape(t *testing.T) {
	var s Segment
	s.Fill(3, 42)
	if s.NumberOfParticles != 42 {
		t.Fatalf("NumberOfParticles = %d", s.NumberOfParticles)
	}
	for _, a := range [][]float64{s.X, s.Y, s.Z, s.VX, s.VY, s.VZ, s.Mass} {
		if len(a) != 42 {
			t.Fatalf("field length %d", len(a))
		}
		for _, v := range a {
			if v < -1 || v > 1 {
				t.Fatalf("value %v out of (-1,1)", v)
			}
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var s Segment
	s.Fill(11, 17)
	var e enc.Buffer
	s.StreamInsert(&e)
	if int64(e.Len()) != EncodedBytes(17) {
		t.Fatalf("encoded %d bytes, want %d", e.Len(), EncodedBytes(17))
	}
	var got Segment
	d := enc.NewReader(e.Bytes())
	got.StreamExtract(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if !got.Equal(&s) {
		t.Fatal("stream round trip mismatch")
	}
	if got.Checksum() != s.Checksum() {
		t.Fatal("checksum mismatch after round trip")
	}
}

// TestSegmentBytesPinned pins the encoded bytes of one segment to the
// digest the per-element codecs produced: any drift in the wire format
// (prefix width, byte order, field order) fails here, since old files and
// channel frames must keep reading.
func TestSegmentBytesPinned(t *testing.T) {
	const want = "4a971e6e416132ad8c989141c14f98ac8e5b4697dbd872fa8d66f8a396ab474b"
	var s Segment
	s.Fill(42, DefaultParticles)
	var e enc.Buffer
	s.StreamInsert(&e)
	sum := sha256.Sum256(e.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("segment bytes sha256 = %s, want %s", got, want)
	}
}

// TestPaperSizes: the workload reproduces the paper's I/O-size columns.
func TestPaperSizes(t *testing.T) {
	perSeg := EncodedBytes(DefaultParticles)
	cases := []struct {
		segments int
		mb       float64
	}{
		{256, 1.4}, {512, 2.8}, {1000, 5.6}, {2000, 11.2}, {8000, 44.8}, {20000, 112},
	}
	for _, c := range cases {
		gotMB := float64(c.segments) * float64(perSeg) / 1e6
		if gotMB < c.mb*0.95 || gotMB > c.mb*1.1 {
			t.Errorf("%d segments = %.2f MB, paper column says %.1f MB", c.segments, gotMB, c.mb)
		}
	}
	if raw := RawBytes(DefaultParticles); raw >= perSeg {
		t.Errorf("raw layout (%d) not smaller than stream layout (%d)", raw, perSeg)
	}
}

func TestChecksumSensitive(t *testing.T) {
	var a, b Segment
	a.Fill(1, 10)
	b.Fill(1, 10)
	b.X[3] += 1e-9
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum insensitive to perturbation")
	}
}

func TestStepConservesCount(t *testing.T) {
	var s Segment
	s.Fill(2, 25)
	before := make([]float64, len(s.X))
	copy(before, s.X)
	s.Step(0.01)
	if s.NumberOfParticles != 25 || len(s.X) != 25 {
		t.Fatal("Step changed particle count")
	}
	same := true
	for i := range s.X {
		if s.X[i] != before[i] {
			same = false
		}
	}
	if same {
		t.Fatal("Step moved nothing")
	}
}

// Property: round trip is identity for arbitrary particle counts.
func TestStreamRoundTripQuick(t *testing.T) {
	f := func(g uint16, n uint8) bool {
		var s, got Segment
		s.Fill(int(g), int(n))
		var e enc.Buffer
		s.StreamInsert(&e)
		d := enc.NewReader(e.Bytes())
		got.StreamExtract(d)
		return d.Err() == nil && got.Equal(&s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualDetectsEveryField(t *testing.T) {
	base := func() Segment {
		var s Segment
		s.Fill(5, 4)
		return s
	}
	mutations := []func(*Segment){
		func(s *Segment) { s.NumberOfParticles++ },
		func(s *Segment) { s.X[0]++ },
		func(s *Segment) { s.Y[1]++ },
		func(s *Segment) { s.Z[2]++ },
		func(s *Segment) { s.VX[3]++ },
		func(s *Segment) { s.VY[0]++ },
		func(s *Segment) { s.VZ[1]++ },
		func(s *Segment) { s.Mass[2]++ },
		func(s *Segment) { s.Mass = s.Mass[:3] },
	}
	for i, m := range mutations {
		a, b := base(), base()
		m(&b)
		if a.Equal(&b) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
}

func TestEnergyDiagnostics(t *testing.T) {
	var s Segment
	s.Fill(9, 50)
	ke, pe := s.KineticEnergy(), s.PotentialEnergy()
	if ke <= 0 {
		// Masses can be negative in the synthetic generator; kinetic energy
		// is sign-weighted by mass, so only check it is finite and nonzero.
		if ke == 0 {
			t.Fatal("kinetic energy identically zero")
		}
	}
	if pe == 0 {
		t.Fatal("potential energy identically zero")
	}
	// Energies are deterministic functions of the state.
	var s2 Segment
	s2.Fill(9, 50)
	if s2.KineticEnergy() != ke || s2.PotentialEnergy() != pe {
		t.Fatal("energies not deterministic")
	}
	// A dynamics step changes both.
	s.Step(0.05)
	if s.KineticEnergy() == ke && s.PotentialEnergy() == pe {
		t.Fatal("Step changed no energy")
	}
}
