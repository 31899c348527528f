package main

import (
	"errors"
	"runtime"
	"testing"

	pcxx "pcxxstreams"
	"pcxxstreams/internal/enc"
)

// TestCorruptCountFailsCleanly feeds the tree extractor child counts of
// 0xFFFFFFFF: each must end in ErrShort after a bounded allocation, never
// a loop over four billion children.
func TestCorruptCountFailsCleanly(t *testing.T) {
	var rootThenCount enc.Buffer // a root value, then a corrupt child count
	rootThenCount.Float64(1.5)
	rootThenCount.Uint32(0xFFFFFFFF)
	for name, input := range map[string][]byte{
		"bare-count": {0xff, 0xff, 0xff, 0xff},
		"children":   rootThenCount.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			var d pcxx.Decoder
			var r region
			extract := func() {
				d.Reset(input)
				r.StreamExtract(&d)
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
