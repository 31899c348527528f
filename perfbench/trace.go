package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spIter spanKind = iota
	// dstream phases, recorded by the workload around each public call.
	spOpen
	spInsert
	spWrite
	spClose
	spRead
	spExtract
	// comm.Transport calls, recorded by timedTransport.
	spSend
	spRecv
	// pfs.Backend calls on the storage that holds the bytes, recorded by
	// timedBackend (the machine's file system, or the daemon's store).
	spPfsRead
	spPfsWrite
	spPfsMeta
	// Client-side calls into a dstreamd-backed file.
	spCall
	numKinds
)

var kindNames = [numKinds]string{
	"iteration",
	"dstream.open", "dstream.insert", "dstream.write", "dstream.close", "dstream.read", "dstream.extract",
	"comm.send", "comm.recv",
	"pfs.read", "pfs.write", "pfs.meta",
	"server.call",
}

// isPhase reports whether k is a dstream phase span.
func (k spanKind) isPhase() bool { return k >= spOpen && k <= spExtract }

// noRank marks a span whose calling rank is unknown (backend calls made by
// whichever rank executes a collective transfer, or by a daemon I/O rank).
const noRank = -1

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base; parent is the id of the span that caused it (the
// rank's open dstream phase for comm calls, the iteration otherwise).
type span struct {
	Kind   spanKind `json:"-"`
	Name   string   `json:"name"`
	ID     int32    `json:"id"`
	Parent int32    `json:"parent"`
	Iter   int32    `json:"iter"`
	Rank   int16    `json:"rank"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Bytes  int64    `json:"bytes,omitempty"`
}

// tracer keeps every span of a traced run in memory. Recording is switched
// on per iteration; while it is off the wrappers forward without timing.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
	iter  int32
	root  atomic.Int32 // the current iteration span
	last  []span       // the spans of the last finished iteration

	cur [maxRanks]atomic.Int32 // per rank: open phase span id, or -1
}

// maxRanks bounds the machine size a tracer follows.
const maxRanks = 16

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.root.Store(-1)
	for i := range t.cur {
		t.cur[i].Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add appends a finished span and returns its id.
func (t *tracer) add(k spanKind, rank int, parent int32, start, end, bytes int64) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Kind: k, ID: id, Parent: parent, Iter: t.iter,
		Rank: int16(rank), Start: start, End: end, Bytes: bytes})
	t.mu.Unlock()
	return id
}

// beginIter opens the span of the next iteration and switches recording
// on.
func (t *tracer) beginIter() {
	t.mu.Lock()
	t.iter++
	t.mu.Unlock()
	t.root.Store(t.add(spIter, noRank, -1, t.now(), 0, 0))
	t.on.Store(true)
}

// endIter switches recording off and closes the iteration span; its spans
// become t.last.
func (t *tracer) endIter() {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.root.Load()
	t.spans[root].End = t.now()
	t.last = t.spans[root:len(t.spans):len(t.spans)]
}

// phase times one dstream call on rank as a child of the iteration. Comm
// calls the rank makes meanwhile become the phase's children. With a nil
// tracer, or recording off, it just calls f.
func (t *tracer) phase(rank int, k spanKind, f func() error) error {
	if t == nil || !t.on.Load() {
		return f()
	}
	start := t.now()
	id := t.add(k, rank, t.root.Load(), start, 0, 0)
	t.cur[rank].Store(id)
	err := f()
	end := t.now()
	t.cur[rank].Store(-1)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return err
}

// parentOf is the span a call made by rank belongs to.
func (t *tracer) parentOf(rank int) int32 {
	if rank >= 0 && rank < maxRanks {
		if id := t.cur[rank].Load(); id >= 0 {
			return id
		}
	}
	return t.root.Load()
}

// writeJSON writes every span, one JSON object a line.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		s.Name = kindNames[s.Kind]
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport times every Send and Recv of the wrapped transport.
type timedTransport struct {
	inner comm.Transport
	t     *tracer
}

var _ comm.DeadlineRecver = (*timedTransport)(nil)

func (w *timedTransport) Send(m comm.Message) error {
	if !w.t.on.Load() {
		return w.inner.Send(m)
	}
	start := w.t.now()
	err := w.inner.Send(m)
	w.t.add(spSend, m.From, w.t.parentOf(m.From), start, w.t.now(), int64(len(m.Data)))
	return err
}

func (w *timedTransport) Recv(to, from int, tag uint64) (comm.Message, error) {
	if !w.t.on.Load() {
		return w.inner.Recv(to, from, tag)
	}
	start := w.t.now()
	m, err := w.inner.Recv(to, from, tag)
	w.t.add(spRecv, to, w.t.parentOf(to), start, w.t.now(), int64(len(m.Data)))
	return m, err
}

// RecvWithin forwards comm.DeadlineRecver when the wrapped transport has
// it, and degrades to an unbounded Recv as the endpoint itself would.
func (w *timedTransport) RecvWithin(to, from int, tag uint64, timeout time.Duration) (comm.Message, error) {
	dr, ok := w.inner.(comm.DeadlineRecver)
	if !ok {
		return w.Recv(to, from, tag)
	}
	if !w.t.on.Load() {
		return dr.RecvWithin(to, from, tag, timeout)
	}
	start := w.t.now()
	m, err := dr.RecvWithin(to, from, tag, timeout)
	w.t.add(spRecv, to, w.t.parentOf(to), start, w.t.now(), int64(len(m.Data)))
	return m, err
}

func (w *timedTransport) Close() error { return w.inner.Close() }

// timedBackend times every call into the wrapped pfs.Backend. remote marks
// a client-side dstreamd file: its calls are server.call spans rather than
// pfs spans.
type timedBackend struct {
	inner  pfs.Backend
	t      *tracer
	remote bool
}

var (
	_ pfs.LayoutProvider                      = (*timedBackend)(nil)
	_ interface{ SetMonitor(*dsmon.Monitor) } = (*timedBackend)(nil)
)

// timeFactory wraps every backend factory makes.
func timeFactory(factory pfs.BackendFactory, t *tracer, remote bool) pfs.BackendFactory {
	return func(name string) (pfs.Backend, error) {
		b, err := factory(name)
		if err != nil {
			return nil, err
		}
		return &timedBackend{inner: b, t: t, remote: remote}, nil
	}
}

func (b *timedBackend) kind(k spanKind) spanKind {
	if b.remote {
		return spCall
	}
	return k
}

func (b *timedBackend) ReadAt(p []byte, off int64) (int, error) {
	if !b.t.on.Load() {
		return b.inner.ReadAt(p, off)
	}
	start := b.t.now()
	n, err := b.inner.ReadAt(p, off)
	b.t.add(b.kind(spPfsRead), noRank, b.t.root.Load(), start, b.t.now(), int64(n))
	return n, err
}

func (b *timedBackend) WriteAt(p []byte, off int64) (int, error) {
	if !b.t.on.Load() {
		return b.inner.WriteAt(p, off)
	}
	start := b.t.now()
	n, err := b.inner.WriteAt(p, off)
	b.t.add(b.kind(spPfsWrite), noRank, b.t.root.Load(), start, b.t.now(), int64(n))
	return n, err
}

func (b *timedBackend) Size() int64 {
	if !b.t.on.Load() {
		return b.inner.Size()
	}
	start := b.t.now()
	n := b.inner.Size()
	b.t.add(b.kind(spPfsMeta), noRank, b.t.root.Load(), start, b.t.now(), 0)
	return n
}

func (b *timedBackend) Truncate(size int64) error {
	if !b.t.on.Load() {
		return b.inner.Truncate(size)
	}
	start := b.t.now()
	err := b.inner.Truncate(size)
	b.t.add(b.kind(spPfsMeta), noRank, b.t.root.Load(), start, b.t.now(), 0)
	return err
}

func (b *timedBackend) Close() error { return b.inner.Close() }

// Layout forwards pfs.LayoutProvider. A backend without geometry yields the
// zero Layout, which pfs and dstreamd both treat as "unknown", exactly as
// if the wrapper were absent.
func (b *timedBackend) Layout() pfs.Layout {
	if lp, ok := b.inner.(pfs.LayoutProvider); ok {
		return lp.Layout()
	}
	return pfs.Layout{}
}

// SetMonitor forwards the file system's monitor hook-up to backends that
// keep instruments of their own.
func (b *timedBackend) SetMonitor(m *dsmon.Monitor) {
	if mb, ok := b.inner.(interface{ SetMonitor(*dsmon.Monitor) }); ok {
		mb.SetMonitor(m)
	}
}

// layerTotals is one traced iteration split by layer.
type layerTotals struct {
	phaseMs             [numKinds]float64 // per dstream phase: mean per participating rank
	writeSelf, readSelf float64           // ms, mean per participating rank
	calls               [numKinds]int64
	bytes               [numKinds]int64
	busyMs              [numKinds]float64 // summed over calls
}

// splitLayers aggregates one iteration's spans.
func splitLayers(spans []span) layerTotals {
	var lt layerTotals
	var ranks [numKinds]map[int16]bool
	children := map[int32][][2]int64{} // phase id → comm child intervals
	var rankless [][2]int64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		lt.calls[s.Kind]++
		lt.bytes[s.Kind] += s.Bytes
		lt.busyMs[s.Kind] += d
		switch {
		case s.Kind.isPhase():
			if ranks[s.Kind] == nil {
				ranks[s.Kind] = map[int16]bool{}
			}
			ranks[s.Kind][s.Rank] = true
		case s.Kind == spSend || s.Kind == spRecv:
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		case s.Kind != spIter:
			rankless = append(rankless, [2]int64{s.Start, s.End})
		}
	}
	for k := spOpen; k <= spExtract; k++ {
		if n := len(ranks[k]); n > 0 {
			lt.phaseMs[k] = lt.busyMs[k] / float64(n)
		}
	}
	for _, s := range spans {
		if s.Kind != spWrite && s.Kind != spRead {
			continue
		}
		self := float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID], rankless)) / 1e6
		if s.Kind == spWrite {
			lt.writeSelf += self
		} else {
			lt.readSelf += self
		}
	}
	if n := len(ranks[spWrite]); n > 0 {
		lt.writeSelf /= float64(n)
	}
	if n := len(ranks[spRead]); n > 0 {
		lt.readSelf /= float64(n)
	}
	return lt
}

// covered returns how much of [lo, hi) the union of the given intervals
// covers.
func covered(lo, hi int64, sets ...[][2]int64) int64 {
	var iv [][2]int64
	for _, set := range sets {
		for _, x := range set {
			a, b := max(x[0], lo), min(x[1], hi)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

func (k spanKind) String() string { return kindNames[k] }
