package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/vtime"
)

// workload is one benchmark scenario. The constructor generates the seeded
// inputs; open and shut bracket the program's own set-up (temp dir,
// daemon, connection); iterate runs one closed-loop iteration and verifies
// it against the generator.
type workload interface {
	// payload is the element bytes one iteration moves end to end.
	payload() int64
	// open sets up a fresh instance. A non-nil tracer installs the timing
	// wrappers the instance needs for traced iterations.
	open(t *tracer) error
	// iterate runs one iteration, recording spans when record is set (the
	// instance must have been opened with a tracer). detail also fills the
	// outcome's file image digest and stored size.
	iterate(record, detail bool) (outcome, error)
	shut() error
}

// outcome is what one iteration did, as measured and as fingerprinted.
type outcome struct {
	wallNs          int64   // the machine run, end to end
	writeNs, readNs int64   // write side and read side walls
	allocB          uint64  // heap bytes allocated during the machine run
	virtual         float64 // simulated makespan
	fresh           bool    // the run started on a fresh file system

	// Fingerprint: equal between a traced and an untraced iteration of
	// the same instance state.
	digest   uint64   // the extracted elements, in reader order
	image    uint64   // the file image (detail only; 0 on the channel)
	stored   int64    // file bytes (detail only)
	msgs     int      // point-to-point messages
	msgBytes int64    // point-to-point bytes
	ioOps    int64    // pfs operations of the iteration
	planSigs []uint64 // per rank: write plan, read plan
	switches int64    // plan switches on rank 0, write plus read
}

const (
	procs    = 4
	fileName = "ckpt"
)

// seedBase offsets generator indices so that every seed fills different
// bytes into identically shaped collections.
func seedBase(seed int64) int { return int(seed) << 20 }

// gen is the seeded element generator.
func gen(seed int64, g, particles int) scf.Segment {
	var s scf.Segment
	s.Fill(seedBase(seed)+g, particles)
	return s
}

// stamps collects per-rank side boundaries as nanoseconds since base. Each
// rank writes only its own slots.
type stamps struct {
	base           time.Time
	ws, we, rs, re [procs]int64
}

func newStamps() *stamps {
	s := &stamps{}
	for r := 0; r < procs; r++ {
		s.ws[r], s.we[r], s.rs[r], s.re[r] = -1, -1, -1, -1
	}
	s.base = time.Now()
	return s
}

func (s *stamps) now() int64 { return int64(time.Since(s.base)) }

// side is the wall from the first rank's start to the last rank's end.
func side(start, end [procs]int64) int64 {
	lo, hi := int64(math.MaxInt64), int64(-1)
	for r := range start {
		if start[r] >= 0 && start[r] < lo {
			lo = start[r]
		}
		if end[r] > hi {
			hi = end[r]
		}
	}
	if hi < 0 {
		return 0
	}
	return hi - lo
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// runMachine runs body on a 4-rank ChanTransport machine under the Paragon
// profile and fills the outcome's timing and traffic fields. With a tracer,
// the transport is wrapped and the run is recorded as one iteration.
func runMachine(fs *pfs.FileSystem, t *tracer, body func(*machine.Node, *stamps) error) (outcome, machine.Result, error) {
	cfg := machine.Config{NProcs: procs, Profile: vtime.Paragon(), FS: fs}
	if t != nil {
		cfg.WrapTransport = func(tr comm.Transport) comm.Transport { return &timedTransport{inner: tr, t: t} }
		t.beginIter()
	}
	st := newStamps()
	a0 := heapAllocs()
	start := time.Now()
	res, err := machine.Run(cfg, func(n *machine.Node) error { return body(n, st) })
	wall := time.Since(start)
	a1 := heapAllocs()
	if t != nil {
		t.endIter()
	}
	return outcome{
		wallNs:   int64(wall),
		writeNs:  side(st.ws, st.we),
		readNs:   side(st.rs, st.re),
		allocB:   a1 - a0,
		virtual:  res.Elapsed,
		msgs:     res.MessagesSent,
		msgBytes: res.BytesSent,
	}, res, err
}

// digest folds segments into a running 64-bit digest (FNV-1a over 64-bit
// words: the element's index, particle count and every float's bits).
func digest(h uint64, g int, s *scf.Segment) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(g)) * prime
	h = (h ^ uint64(s.NumberOfParticles)) * prime
	for _, a := range [][]float64{s.X, s.Y, s.Z, s.VX, s.VY, s.VZ, s.Mass} {
		h = (h ^ uint64(len(a))) * prime
		for _, v := range a {
			h = (h ^ math.Float64bits(v)) * prime
		}
	}
	return h
}

const digestSeed = 14695981039346656037

func bytesDigest(b []byte) uint64 {
	h := uint64(digestSeed)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// fillLocal points a collection's local elements at the generated ones.
func fillLocal(c *collection.Collection[scf.Segment], want []scf.Segment) {
	for l := range c.Local() {
		c.Local()[l] = want[c.GlobalIndexOf(l)]
	}
}

// ---------------------------------------------------------------------------
// The two file workloads share one iteration body: write a generated
// collection under one layout, read it back under another.

type fileRoundTrip struct {
	name             string
	elems, particles int
	wDist, rDist     *distr.Distribution
	sorted           bool          // Read, else UnsortedRead
	want             []scf.Segment // by global index
	expect           [procs][]int  // global index of each element read, per rank
	back             [procs][]scf.Segment
}

func newFileRoundTrip(name string, seed int64, elems, particles int, wMode, rMode distr.Mode, sorted bool) (*fileRoundTrip, error) {
	f := &fileRoundTrip{name: name, elems: elems, particles: particles, sorted: sorted}
	var err error
	if f.wDist, err = distr.New(elems, procs, wMode, 0); err != nil {
		return nil, err
	}
	if f.rDist, err = distr.New(elems, procs, rMode, 0); err != nil {
		return nil, err
	}
	f.want = make([]scf.Segment, elems)
	for g := range f.want {
		f.want[g] = gen(seed, g, particles)
	}
	// A sorted read lands every element on its owner under rDist; an
	// unsorted one hands rank r the next rDist.LocalCount(r) positions of
	// the file, which holds the writers' blocks in rank order.
	var fileOrder []int
	for r := 0; r < procs; r++ {
		for l := 0; l < f.wDist.LocalCount(r); l++ {
			fileOrder = append(fileOrder, f.wDist.GlobalIndex(r, l))
		}
	}
	for r := 0; r < procs; r++ {
		n := f.rDist.LocalCount(r)
		if sorted {
			for l := 0; l < n; l++ {
				f.expect[r] = append(f.expect[r], f.rDist.GlobalIndex(r, l))
			}
		} else {
			f.expect[r], fileOrder = fileOrder[:n], fileOrder[n:]
		}
	}
	return f, nil
}

func (f *fileRoundTrip) payload() int64 {
	return int64(f.elems) * scf.EncodedBytes(f.particles)
}

// run does one iteration on fs and verifies it. detail also digests the
// file image.
func (f *fileRoundTrip) run(fs *pfs.FileSystem, t *tracer, detail bool) (outcome, error) {
	io0 := fs.Stats().TotalOps()
	var sigs [2 * procs]uint64
	var switches int64
	out, _, err := runMachine(fs, t, func(node *machine.Node, st *stamps) error {
		r := node.Rank()
		c, err := collection.New[scf.Segment](node, f.wDist)
		if err != nil {
			return err
		}
		fillLocal(c, f.want)
		back, err := collection.New[scf.Segment](node, f.rDist)
		if err != nil {
			return err
		}

		st.ws[r] = st.now()
		var s *dstream.OStream
		if err := t.phase(r, spOpen, func() (err error) {
			s, err = dstream.Open(node, f.wDist, fileName)
			return err
		}); err != nil {
			return err
		}
		if err := t.phase(r, spInsert, func() error { return dstream.Insert(s, c) }); err != nil {
			return err
		}
		if err := t.phase(r, spWrite, s.Write); err != nil {
			return err
		}
		sigs[2*r] = s.PlanSignature()
		wsw := s.PlanSwitches()
		if err := t.phase(r, spClose, s.Close); err != nil {
			return err
		}
		st.we[r] = st.now()

		st.rs[r] = st.now()
		var in *dstream.IStream
		if err := t.phase(r, spOpen, func() (err error) {
			in, err = dstream.OpenInput(node, f.rDist, fileName)
			return err
		}); err != nil {
			return err
		}
		read := in.UnsortedRead
		if f.sorted {
			read = in.Read
		}
		if err := t.phase(r, spRead, read); err != nil {
			return err
		}
		if err := t.phase(r, spExtract, func() error { return dstream.Extract(in, back) }); err != nil {
			return err
		}
		sigs[2*r+1] = in.PlanSignature()
		if r == 0 {
			switches = wsw + in.PlanSwitches()
		}
		if err := t.phase(r, spClose, in.Close); err != nil {
			return err
		}
		st.re[r] = st.now()
		f.back[r] = back.Local()
		return nil
	})
	if err != nil {
		return out, err
	}
	out.ioOps = fs.Stats().TotalOps() - io0
	out.planSigs = sigs[:]
	out.switches = switches

	h := uint64(digestSeed)
	for r := 0; r < procs; r++ {
		if len(f.back[r]) != len(f.expect[r]) {
			return out, fmt.Errorf("%s: rank %d read %d elements, want %d", f.name, r, len(f.back[r]), len(f.expect[r]))
		}
		for l, g := range f.expect[r] {
			if !f.back[r][l].Equal(&f.want[g]) {
				return out, fmt.Errorf("%s: rank %d element %d (global %d) differs from the generator", f.name, r, l, g)
			}
			h = digest(h, g, &f.back[r][l])
		}
		f.back[r] = nil
	}
	out.digest = h
	if detail {
		img, err := fs.Image(fileName)
		if err != nil {
			return out, err
		}
		out.image = bytesDigest(img)
		out.stored = int64(len(img))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// scf_checkpoint: the paper's output-then-input operation on the SCF
// Segment collection, through real files.

type scfCheckpoint struct {
	*fileRoundTrip
	root string // parent of the per-instance temp dirs
	dir  string
	t    *tracer
}

func newSCFCheckpoint(seed int64, root string) (*scfCheckpoint, error) {
	f, err := newFileRoundTrip("scf_checkpoint", seed, 8192, 100, distr.Cyclic, distr.Cyclic, false)
	if err != nil {
		return nil, err
	}
	return &scfCheckpoint{fileRoundTrip: f, root: root}, nil
}

func (w *scfCheckpoint) open(t *tracer) error {
	if err := os.MkdirAll(w.root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.root, "scf-")
	if err != nil {
		return err
	}
	w.dir, w.t = dir, t
	return nil
}

func (w *scfCheckpoint) shut() error { return os.RemoveAll(w.dir) }

// iterate writes into a fresh file system over the temp dir and removes
// the file afterwards.
func (w *scfCheckpoint) iterate(record, detail bool) (outcome, error) {
	var t *tracer
	factory := pfs.OSFactory(w.dir)
	if record {
		t = w.t
		factory = timeFactory(factory, t, false)
	}
	fs := pfs.NewFileSystem(vtime.Paragon(), factory)
	defer func() {
		fs.Close()
		os.Remove(filepath.Join(w.dir, fileName))
	}()
	out, err := w.run(fs, t, detail)
	out.fresh = true
	return out, err
}

// ---------------------------------------------------------------------------
// channel_pipeline: 2 producer ranks stream records to 2 consumer ranks
// over a persistent channel, BLOCK to CYCLIC.

type channelPipeline struct {
	elems, particles, records, m, n int
	dProd, dCons                    *distr.Distribution
	want                            [][]scf.Segment   // [record][global]
	prod                            [][][]scf.Segment // [producer][record][local]
	back                            [][][]scf.Segment // [consumer][record][local]
	wantDigest                      []uint64          // per consumer
	t                               *tracer
}

func newChannelPipeline(seed int64) (*channelPipeline, error) {
	w := &channelPipeline{elems: 2048, particles: 100, records: 4, m: 2, n: 2}
	var err error
	if w.dProd, err = distr.New(w.elems, w.m, distr.Block, 0); err != nil {
		return nil, err
	}
	if w.dCons, err = distr.New(w.elems, w.n, distr.Cyclic, 0); err != nil {
		return nil, err
	}
	w.want = make([][]scf.Segment, w.records)
	for rec := range w.want {
		w.want[rec] = make([]scf.Segment, w.elems)
		for g := range w.want[rec] {
			w.want[rec][g] = gen(seed, rec*w.elems+g, w.particles)
		}
	}
	w.prod = make([][][]scf.Segment, w.m)
	for p := range w.prod {
		w.prod[p] = make([][]scf.Segment, w.records)
		for rec := range w.prod[p] {
			local := make([]scf.Segment, w.dProd.LocalCount(p))
			for l := range local {
				local[l] = w.want[rec][w.dProd.GlobalIndex(p, l)]
			}
			w.prod[p][rec] = local
		}
	}
	w.back = make([][][]scf.Segment, w.n)
	w.wantDigest = make([]uint64, w.n)
	for c := range w.back {
		w.back[c] = make([][]scf.Segment, w.records)
		h := uint64(digestSeed)
		for rec := range w.back[c] {
			w.back[c][rec] = make([]scf.Segment, w.dCons.LocalCount(c))
			for l := range w.back[c][rec] {
				g := w.dCons.GlobalIndex(c, l)
				h = digest(h, rec*w.elems+g, &w.want[rec][g])
			}
		}
		w.wantDigest[c] = h
	}
	return w, nil
}

func (w *channelPipeline) payload() int64 {
	return int64(w.records*w.elems) * scf.EncodedBytes(w.particles)
}

func (w *channelPipeline) open(t *tracer) error { w.t = t; return nil }

func (w *channelPipeline) shut() error { return nil }

func (w *channelPipeline) iterate(record, detail bool) (outcome, error) {
	var t *tracer
	if record {
		t = w.t
	}
	for c := range w.back {
		for rec := range w.back[c] {
			clear(w.back[c][rec])
		}
	}
	out, res, err := runMachine(pfs.NewMemFS(vtime.Paragon()), t, func(node *machine.Node, st *stamps) error {
		r := node.Rank()
		if r < w.m {
			st.ws[r] = st.now()
			var s *dstream.OChannel
			if err := t.phase(r, spOpen, func() (err error) {
				s, err = dstream.OpenChannel(node, w.dProd, w.dCons, "pipe")
				return err
			}); err != nil {
				return err
			}
			for rec := 0; rec < w.records; rec++ {
				local := w.prod[r][rec]
				if err := t.phase(r, spInsert, func() error { return dstream.InsertElems(s, local) }); err != nil {
					return err
				}
				if err := t.phase(r, spWrite, s.Write); err != nil {
					return err
				}
			}
			err := t.phase(r, spClose, s.Close)
			st.we[r] = st.now()
			return err
		}
		c := r - w.m
		st.rs[r] = st.now()
		var in *dstream.IChannel
		if err := t.phase(r, spOpen, func() (err error) {
			in, err = dstream.OpenChannelInput(node, w.dCons, w.dProd, "pipe")
			return err
		}); err != nil {
			return err
		}
		for rec := 0; rec < w.records; rec++ {
			local := w.back[c][rec]
			if err := t.phase(r, spRead, in.Read); err != nil {
				return err
			}
			if err := t.phase(r, spExtract, func() error { return dstream.ExtractElems(in, local) }); err != nil {
				return err
			}
		}
		err := t.phase(r, spClose, in.Close)
		st.re[r] = st.now()
		return err
	})
	if err != nil {
		return out, err
	}
	out.fresh = true
	out.ioOps = res.IO.TotalOps()

	// Verify every element, then each consumer's digest; the iteration's
	// digest chains the consumers'.
	out.digest = digestSeed
	for c := range w.back {
		h := uint64(digestSeed)
		for rec := range w.back[c] {
			for l := range w.back[c][rec] {
				g := w.dCons.GlobalIndex(c, l)
				got := &w.back[c][rec][l]
				if !got.Equal(&w.want[rec][g]) {
					return out, fmt.Errorf("channel_pipeline: consumer %d record %d element %d differs from the generator", c, rec, g)
				}
				h = digest(h, rec*w.elems+g, got)
			}
		}
		if h != w.wantDigest[c] {
			return out, fmt.Errorf("channel_pipeline: consumer %d digest %#x, want %#x", c, h, w.wantDigest[c])
		}
		out.digest = (out.digest ^ h) * 1099511628211
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// daemon_restart: write a checkpoint through an in-process dstreamd and read
// it back on a different layout (a restart).

const tenant = "bench"

type daemonRestart struct {
	*fileRoundTrip
	t   *tracer
	srv *server.Server
	cli *server.Client
	fs  *pfs.FileSystem // the session's file system, reused by every iteration
	// fresh is set until the first iteration on fs.
	fresh bool
}

func newDaemonRestart(seed int64) (*daemonRestart, error) {
	f, err := newFileRoundTrip("daemon_restart", seed, 16384, 8, distr.Cyclic, distr.Block, true)
	if err != nil {
		return nil, err
	}
	return &daemonRestart{fileRoundTrip: f}, nil
}

// open starts a daemon on loopback with its default striped in-memory
// store and connects one client. The client's file system is built once,
// as a session builds it, so every iteration reuses it.
func (w *daemonRestart) open(t *tracer) error {
	cfg := server.Config{Tenants: []server.Tenant{{Name: tenant}}}
	if t != nil {
		// The same store the daemon defaults to, behind the timing wrapper.
		cfg.StripeFactor, cfg.StripeUnit = 4, 64<<10
		cfg.Factory = timeFactory(pfs.StripedMemFactory(cfg.StripeFactor, cfg.StripeUnit), t, false)
	}
	srv, err := server.Start("127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: tenant})
	if err != nil {
		srv.Close()
		return err
	}
	factory := cli.Factory()
	if t != nil {
		factory = timeFactory(factory, t, true)
	}
	w.t, w.srv, w.cli = t, srv, cli
	w.fs = pfs.NewFileSystem(vtime.Paragon(), factory)
	w.fresh = true
	return nil
}

func (w *daemonRestart) shut() error {
	err := w.cli.Close()
	if e := w.srv.Close(); err == nil {
		err = e
	}
	return err
}

func (w *daemonRestart) iterate(record, detail bool) (outcome, error) {
	var t *tracer
	if record {
		t = w.t
	}
	out, err := w.run(w.fs, t, detail)
	out.fresh, w.fresh = w.fresh, false
	return out, err
}
