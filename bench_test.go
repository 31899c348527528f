package pcxxstreams

// The benchmark harness of the reproduction: one testing.B benchmark per
// table of the paper's Figure 5 (Tables 1-4), plus the ablation benches
// DESIGN.md derives from the paper's design discussion, plus host-side
// micro-benchmarks of the library itself.
//
// The table benches report deterministic *virtual* seconds (the paper's
// metric, from the calibrated platform cost models) via b.ReportMetric;
// wall-clock time of a bench run is the simulator's own cost and is not
// comparable to the paper. Run with:
//
//	go test -bench=Table -benchmem
//	go test -bench=Ablation
//	go test -bench=. -benchmem   # everything

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"pcxxstreams/internal/bench"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

var printTables sync.Map // table id → once

func benchTable(b *testing.B, id int) {
	spec, err := bench.TableByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res bench.TableResult
	for i := 0; i < b.N; i++ {
		res, err = bench.RunTable(spec, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.CheckShape(); err != nil {
		b.Fatalf("shape violated: %v", err)
	}
	// Print each regenerated table once per `go test` process, side by side
	// with the paper's numbers.
	if _, loaded := printTables.LoadOrStore(id, true); !loaded {
		fmt.Fprintln(os.Stderr)
		res.Format(os.Stderr)
	}
	last := len(spec.Segments) - 1
	b.ReportMetric(res.Streams[last], "vsec-streams")
	b.ReportMetric(res.Manual[last], "vsec-manual")
	b.ReportMetric(res.Unbuffered[last], "vsec-unbuf")
	b.ReportMetric(res.Percent[last], "%ofmanual")
}

// BenchmarkTable1 regenerates Table 1: Intel Paragon, 4 processors.
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 regenerates Table 2: Intel Paragon, 8 processors.
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3: uniprocessor SGI Challenge.
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates Table 4: 8-processor SGI Challenge.
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// --- Ablations (see DESIGN.md §Ablations) ---

// BenchmarkAblationSortedVsUnsorted quantifies §3's claim that unsortedRead
// avoids the interprocessor communication of read.
func BenchmarkAblationSortedVsUnsorted(b *testing.B) {
	var sorted, unsorted float64
	var err error
	for i := 0; i < b.N; i++ {
		sorted, unsorted, err = bench.AblationSortedVsUnsorted(vtime.Paragon(), 4, 512)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sorted, "vsec-sorted")
	b.ReportMetric(unsorted, "vsec-unsorted")
	b.ReportMetric(sorted/unsorted, "sorted/unsorted")
}

// BenchmarkAblationMetadataPath compares §4.1's two metadata strategies on
// a small collection (funnel should win) and a large one (parallel should).
func BenchmarkAblationMetadataPath(b *testing.B) {
	for _, c := range []struct {
		name     string
		segments int
	}{{"small-64segs", 64}, {"large-8192segs", 8192}} {
		b.Run(c.name, func(b *testing.B) {
			var funnel, parallel float64
			var err error
			for i := 0; i < b.N; i++ {
				funnel, parallel, err = bench.AblationMetadataPath(vtime.Paragon(), 8, c.segments)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(funnel, "vsec-funnel")
			b.ReportMetric(parallel, "vsec-parallel")
		})
	}
}

// BenchmarkAblationInterleave compares one interleaved record against one
// record per field array.
func BenchmarkAblationInterleave(b *testing.B) {
	var inter, sep float64
	var err error
	for i := 0; i < b.N; i++ {
		inter, sep, err = bench.AblationInterleave(vtime.Paragon(), 4, 256)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(inter, "vsec-interleaved")
	b.ReportMetric(sep, "vsec-separate")
}

// BenchmarkAblationFlushGranularity sweeps the number of write() flushes
// covering the same data (§4.3: buffering reduces total latency).
func BenchmarkAblationFlushGranularity(b *testing.B) {
	for _, records := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("flushes-%d", records), func(b *testing.B) {
			var secs float64
			var err error
			for i := 0; i < b.N; i++ {
				secs, err = bench.AblationFlushGranularity(vtime.Paragon(), 4, 512, records)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(secs, "vsec")
		})
	}
}

// BenchmarkAblationRedistribute prices the two-phase sorted read's
// redistribution against a same-layout restart.
func BenchmarkAblationRedistribute(b *testing.B) {
	var same, changed float64
	var err error
	for i := 0; i < b.N; i++ {
		same, changed, err = bench.AblationRedistribute(vtime.Paragon(), 512)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(same, "vsec-same-layout")
	b.ReportMetric(changed, "vsec-redistributed")
}

// BenchmarkAblationTransport validates the goroutine/socket substitution:
// virtual results are identical; wall-clock differs (that difference is the
// thing this bench measures).
func BenchmarkAblationTransport(b *testing.B) {
	for _, tr := range []struct {
		name string
		kind machine.TransportKind
	}{{"chan", machine.TransportChan}, {"tcp", machine.TransportTCP}} {
		b.Run(tr.name, func(b *testing.B) {
			var secs float64
			var err error
			for i := 0; i < b.N; i++ {
				secs, err = bench.Seconds(bench.Run{
					Profile: vtime.Challenge(), NProcs: 4, Segments: 128,
					Variant: bench.Streams, Transport: tr.kind,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(secs, "vsec")
		})
	}
}

// --- Host micro-benchmarks of the library itself (wall-clock) ---

// BenchmarkStreamWriteThroughput measures host-side throughput of the full
// insert+write pipeline.
func BenchmarkStreamWriteThroughput(b *testing.B) {
	const segments, nprocs = 256, 4
	bytes := int64(segments) * scf.EncodedBytes(scf.DefaultParticles)
	b.SetBytes(bytes)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Seconds(bench.Run{
			Profile: vtime.Challenge(), NProcs: nprocs, Segments: segments,
			Variant: bench.Streams,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentEncode measures raw element encode speed.
func BenchmarkSegmentEncode(b *testing.B) {
	var s scf.Segment
	s.Fill(1, scf.DefaultParticles)
	b.SetBytes(scf.EncodedBytes(scf.DefaultParticles))
	var e Encoder
	for i := 0; i < b.N; i++ {
		e.Reset()
		s.StreamInsert(&e)
	}
}

// BenchmarkSegmentDecode measures raw element decode speed: one encoded
// segment extracted into fresh arrays, as every read does.
func BenchmarkSegmentDecode(b *testing.B) {
	var s scf.Segment
	s.Fill(1, scf.DefaultParticles)
	var e Encoder
	s.StreamInsert(&e)
	b.SetBytes(int64(e.Len()))
	var d Decoder
	for i := 0; i < b.N; i++ {
		d.Reset(e.Bytes())
		var got scf.Segment
		got.StreamExtract(&d)
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// BenchmarkPlatformSweep runs the streams benchmark on all three platform
// profiles (paragon, cm5, challenge) — the CM-5 column is the measurement
// the paper could not take ("CMMD timers do not account for I/O").
func BenchmarkPlatformSweep(b *testing.B) {
	var results []bench.PlatformResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = bench.RunPlatformSweep(4, 512)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		if r.Variant == bench.Streams {
			b.ReportMetric(r.Seconds, "vsec-"+r.Profile)
		}
	}
}

// BenchmarkOpProfile reports the per-variant I/O call counts behind the
// tables at the 512-segment point.
func BenchmarkOpProfile(b *testing.B) {
	var m bench.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = bench.Measure(bench.Run{
			Profile: vtime.Paragon(), NProcs: 4, Segments: 512, Variant: bench.Unbuffered,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.IO.TotalOps()), "io-ops-unbuffered")
}

// BenchmarkAblationAsyncOverlap quantifies the write-behind extension:
// computation overlapping checkpoint I/O.
func BenchmarkAblationAsyncOverlap(b *testing.B) {
	var syncT, asyncT float64
	var err error
	for i := 0; i < b.N; i++ {
		syncT, asyncT, err = bench.AblationAsyncOverlap(vtime.Paragon(), 4, 512, 4, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(syncT, "vsec-sync")
	b.ReportMetric(asyncT, "vsec-async")
}
