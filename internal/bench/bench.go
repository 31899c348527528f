// Package bench is the harness that regenerates every table of the paper's
// evaluation (§4.3, Figure 5): the SCF I/O skeleton coded three ways —
// unbuffered OS primitives, manual buffering, and pC++/streams — measured as
// "an output operation followed by an input operation on a distributed data
// structure", with the d/stream unsortedRead primitive used for input.
//
// Times are deterministic virtual seconds from the platform cost models, so
// the tables reproduce the paper's shape (who wins, by what factor, where
// the cliffs fall) on any host.
package bench

import (
	"fmt"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/manualbuf"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/trace"
	"pcxxstreams/internal/unbuffered"
	"pcxxstreams/internal/vtime"
)

// Variant selects which of the paper's three I/O codings to run.
type Variant uint8

const (
	// Unbuffered uses one OS call per field per segment.
	Unbuffered Variant = iota
	// ManualBuf packs per-node buffers by hand; no metadata in the file.
	ManualBuf
	// Streams uses the pC++/streams library (output, then unsortedRead).
	Streams
	// StreamsSorted uses the sorted read primitive instead of unsortedRead
	// (ablation only; the paper's tables use unsortedRead).
	StreamsSorted
)

func (v Variant) String() string {
	switch v {
	case Unbuffered:
		return "Unbuffered I/O"
	case ManualBuf:
		return "Manual Buffering"
	case Streams:
		return "pC++/streams"
	case StreamsSorted:
		return "pC++/streams (sorted read)"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// Run describes one measurement.
type Run struct {
	Profile   vtime.Profile
	NProcs    int
	Segments  int
	Particles int // 0 means scf.DefaultParticles
	Variant   Variant
	Transport machine.TransportKind
	// StreamOpts tunes the Streams variants (the strategy ablations); it
	// is applied to both the output and the input stream.
	StreamOpts dstream.Options
	// FS, when non-nil, replaces the run's flat in-memory file system. The
	// planner ablation passes a striped store (the geometry the two-phase
	// strategy aggregates against) and keeps the written image
	// inspectable after the run, for byte-identity comparison across
	// strategies.
	FS *pfs.FileSystem
	// Verify re-checks every element after the input phase (on by default
	// in tests; adds no virtual time).
	Verify bool
	// Trace, when non-nil, records every I/O operation's virtual interval.
	Trace *trace.Recorder
	// Monitor, when non-nil, collects dsmon metrics (and, if the monitor
	// traces, spans) for the whole run.
	Monitor *dsmon.Monitor
	// Collectives selects the collective algorithm (Linear default).
	Collectives collective.Algorithm
}

// Measurement is one benchmark run's outcome: the paper's metric (virtual
// seconds) plus the operation profile that explains it.
type Measurement struct {
	Seconds      float64
	IO           pfs.IOStats
	MessagesSent int
	BytesSent    int64
}

// Seconds executes the measurement and returns the virtual makespan of the
// output-then-input sequence, excluding data-set construction.
func Seconds(r Run) (float64, error) {
	m, err := Measure(r)
	return m.Seconds, err
}

// Measure executes the measurement and returns the full profile.
func Measure(r Run) (Measurement, error) {
	particles := r.Particles
	if particles == 0 {
		particles = scf.DefaultParticles
	}
	fs := r.FS
	if fs == nil {
		fs = pfs.NewMemFS(r.Profile)
	}
	mres, err := machine.Run(machine.Config{
		NProcs:      r.NProcs,
		Profile:     r.Profile,
		Transport:   r.Transport,
		FS:          fs,
		Trace:       r.Trace,
		Monitor:     r.Monitor,
		Collectives: r.Collectives,
	}, func(n *machine.Node) error {
		// Figure 3 declares the benchmark collection CYCLIC.
		d, err := distr.New(r.Segments, r.NProcs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, s *scf.Segment) { s.Fill(g, particles) })
		back, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		n.Clock().Reset()

		const file = "scf-particles"
		switch r.Variant {
		case Unbuffered:
			if err := unbuffered.WriteSegments(n, c, file, particles); err != nil {
				return err
			}
			if err := unbuffered.ReadSegments(n, back, file, particles); err != nil {
				return err
			}
		case ManualBuf:
			if err := manualbuf.WriteSegments(n, c, file, particles); err != nil {
				return err
			}
			if err := manualbuf.ReadSegments(n, back, file, particles); err != nil {
				return err
			}
		case Streams, StreamsSorted:
			if err := streamsWrite(n, d, c, file, r.StreamOpts); err != nil {
				return err
			}
			if err := streamsRead(n, d, back, file, r.Variant == StreamsSorted, r.StreamOpts); err != nil {
				return err
			}
		default:
			return fmt.Errorf("bench: unknown variant %d", r.Variant)
		}

		if r.Verify {
			var bad error
			back.Apply(func(g int, s *scf.Segment) {
				var want scf.Segment
				want.Fill(g, particles)
				if !s.Equal(&want) {
					bad = fmt.Errorf("bench: verification failed at global %d", g)
				}
			})
			if bad != nil {
				return bad
			}
		}
		return nil
	})
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Seconds:      mres.Elapsed,
		IO:           mres.IO,
		MessagesSent: mres.MessagesSent,
		BytesSent:    mres.BytesSent,
	}, nil
}

func streamsWrite(n *machine.Node, d *distr.Distribution, c *collection.Collection[scf.Segment], file string, opts dstream.Options) error {
	s, err := dstream.Open(n, d, file, dstream.WithOptions(opts))
	if err != nil {
		return err
	}
	if err := dstream.Insert[scf.Segment](s, c); err != nil {
		return err
	}
	if err := s.Write(); err != nil {
		return err
	}
	return s.Close()
}

func streamsRead(n *machine.Node, d *distr.Distribution, c *collection.Collection[scf.Segment], file string, sorted bool, opts dstream.Options) error {
	s, err := dstream.OpenInput(n, d, file, dstream.WithOptions(opts))
	if err != nil {
		return err
	}
	if sorted {
		err = s.Read()
	} else {
		err = s.UnsortedRead()
	}
	if err != nil {
		return err
	}
	if err := dstream.Extract[scf.Segment](s, c); err != nil {
		return err
	}
	return s.Close()
}
