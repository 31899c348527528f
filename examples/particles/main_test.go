package main

import (
	"errors"
	"runtime"
	"testing"

	pcxx "pcxxstreams"
	"pcxxstreams/internal/enc"
)

// TestCorruptCountFailsCleanly feeds ParticleList's extractor element
// counts of 0xFFFFFFFF: each must end in ErrShort after a bounded
// allocation, never a multi-gigabyte make.
func TestCorruptCountFailsCleanly(t *testing.T) {
	var countThenMass enc.Buffer // NumberOfParticles, then a corrupt Mass count
	countThenMass.Int64(3)
	countThenMass.Uint32(0xFFFFFFFF)
	var corruptPositions enc.Buffer // an empty Mass, then a corrupt Position count
	corruptPositions.Int64(3)
	corruptPositions.Float64Slice(nil)
	corruptPositions.Uint32(0xFFFFFFFF)
	for name, input := range map[string][]byte{
		"bare-count": {0xff, 0xff, 0xff, 0xff},
		"mass":       countThenMass.Bytes(),
		"positions":  corruptPositions.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			var d pcxx.Decoder
			extract := func() {
				var p ParticleList
				d.Reset(input)
				p.StreamExtract(&d)
			}
			extract()
			if !errors.Is(d.Err(), enc.ErrShort) {
				t.Fatalf("Err = %v, want ErrShort", d.Err())
			}
			if allocs := testing.AllocsPerRun(20, extract); allocs > 8 {
				t.Fatalf("%.1f allocations per corrupt extract", allocs)
			}
			if b := bytesPerRun(20, extract); b > 1<<10 {
				t.Fatalf("%d bytes allocated per corrupt extract", b)
			}
		})
	}
}

func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
