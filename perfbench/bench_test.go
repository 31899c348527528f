package main

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// firstIteration runs the warm-up iteration of a fresh instance.
func firstIteration(t *testing.T, name string, seed int64, tr *tracer) outcome {
	t.Helper()
	w, err := newWorkload(name, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.open(tr); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.shut(); err != nil {
			t.Error(err)
		}
	}()
	o, err := w.iterate(tr != nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestTracingIsTransparent: a traced iteration and an untraced one give the
// same data, virtual time, traffic and plan on every rank.
func TestTracingIsTransparent(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain := firstIteration(t, name, 7, nil)
			tr := newTracer()
			traced := firstIteration(t, name, 7, tr)
			if err := sameFingerprint(plain, traced); err != nil {
				t.Fatal(err)
			}
			lt := splitLayers(tr.last)
			if lt.calls[spWrite] == 0 || lt.calls[spRead] == 0 {
				t.Fatalf("traced iteration recorded no dstream phases: %d write, %d read spans",
					lt.calls[spWrite], lt.calls[spRead])
			}
			if plain.virtual <= 0 {
				t.Fatalf("virtual makespan %g", plain.virtual)
			}
		})
	}
}

// TestSeedChangesBytesNotShape: two seeds give different bytes but the same
// virtual time, traffic and metric schema.
func TestSeedChangesBytesNotShape(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := firstIteration(t, name, 1, nil)
			b := firstIteration(t, name, 2, nil)
			if a.digest == b.digest {
				t.Fatal("seeds 1 and 2 extracted identical data")
			}
			if name != "channel_pipeline" && a.image == b.image {
				t.Fatal("seeds 1 and 2 wrote identical files")
			}
			if a.virtual != b.virtual {
				t.Fatalf("virtual makespan %.9g vs %.9g", a.virtual, b.virtual)
			}
			if a.stored != b.stored || a.msgs != b.msgs || a.msgBytes != b.msgBytes || a.ioOps != b.ioOps {
				t.Fatalf("shape differs: %+v vs %+v", a, b)
			}
			if sa, sb := schema(t, name, 1), schema(t, name, 2); !slices.Equal(sa, sb) {
				t.Fatalf("metric schema differs: %v vs %v", sa, sb)
			}
		})
	}
}

// schema runs a one-second untraced benchmark and returns its metric names
// and units.
func schema(t *testing.T, name string, seed int64) []string {
	t.Helper()
	w, err := newWorkload(name, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{name: name, w: w, res: result{Metrics: map[string]metric{}}}
	b.untraced(time.Second)
	if b.res.Failed != 0 {
		t.Fatalf("%d of %d iterations failed", b.res.Failed, b.res.Attempted)
	}
	var out []string
	for n, m := range b.res.Metrics {
		out = append(out, n+" "+m.Unit)
	}
	slices.Sort(out)
	return out
}

// geoBackend is a backend with geometry and a monitor hook of its own.
type geoBackend struct {
	*pfs.MemBackend
	mon *dsmon.Monitor
}

func (g *geoBackend) Layout() pfs.Layout          { return pfs.Layout{StripeUnit: 4096, StripeFactor: 3} }
func (g *geoBackend) SetMonitor(m *dsmon.Monitor) { g.mon = m }

// deadlineTransport records the deadline it was handed.
type deadlineTransport struct {
	comm.Transport
	timeout time.Duration
}

func (d *deadlineTransport) RecvWithin(to, from int, tag uint64, timeout time.Duration) (comm.Message, error) {
	d.timeout = timeout
	return comm.Message{}, comm.ErrRecvTimeout
}

// TestWrappersForward: the timing wrappers pass geometry, the monitor
// hook-up and bounded receives through to what they wrap, recording or not.
func TestWrappersForward(t *testing.T) {
	tr := newTracer()
	for _, record := range []bool{false, true} {
		tr.on.Store(record)
		inner := &geoBackend{MemBackend: pfs.NewMemBackend()}
		b, err := timeFactory(func(string) (pfs.Backend, error) { return inner, nil }, tr, false)("f")
		if err != nil {
			t.Fatal(err)
		}
		fs := pfs.NewFileSystem(vtime.Paragon(), func(string) (pfs.Backend, error) { return b, nil })
		var clock vtime.Clock
		h, err := fs.Open("f", 1, 0, &clock, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := h.Layout(), inner.Layout(); got != want {
			t.Fatalf("record=%v: layout through the wrapper %+v, want %+v", record, got, want)
		}
		m := dsmon.New()
		fs.SetMonitor(m)
		if inner.mon != m {
			t.Fatalf("record=%v: SetMonitor did not reach the wrapped backend", record)
		}

		dt := &deadlineTransport{Transport: comm.NewChanTransport(2)}
		w := &timedTransport{inner: dt, t: tr}
		if _, err := w.RecvWithin(0, 1, 9, 5*time.Millisecond); !errors.Is(err, comm.ErrRecvTimeout) || dt.timeout != 5*time.Millisecond {
			t.Fatalf("record=%v: RecvWithin not forwarded: err %v, timeout %v", record, err, dt.timeout)
		}
		w.Close()
	}
	tr.on.Store(false)
	// A backend without geometry stays without it.
	b, _ := timeFactory(pfs.MemFactory(), tr, false)("g")
	if l := b.(pfs.LayoutProvider).Layout(); l != (pfs.Layout{}) {
		t.Fatalf("flat backend reported layout %+v", l)
	}
}

// TestCovered: self time subtracts the union of child intervals, clipped to
// the parent span, counting overlaps once.
func TestCovered(t *testing.T) {
	for _, c := range []struct {
		name string
		sets [][][2]int64
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", [][][2]int64{{{10, 20}, {30, 35}}}, 15},
		{"overlap across sets", [][][2]int64{{{10, 20}}, {{15, 25}}}, 15},
		{"nested", [][][2]int64{{{10, 40}, {15, 20}}}, 30},
		{"clipped", [][][2]int64{{{-5, 5}, {95, 120}}}, 10},
		{"outside", [][][2]int64{{{-9, -1}, {100, 200}}}, 0},
	} {
		if got := covered(0, 100, c.sets...); got != c.want {
			t.Errorf("%s: covered %d, want %d", c.name, got, c.want)
		}
	}
}
