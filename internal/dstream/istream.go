package dstream

import (
	"errors"
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/plan"
	"pcxxstreams/internal/trace"
)

// IStream is an input d/stream. Records are consumed in the order they were
// written; each Read (or UnsortedRead) loads one record into the per-node
// buffers, after which Extract calls drain it array by array.
type IStream struct {
	stream
	opts   Options
	cursor int64 // file offset of the next record

	// Current record state.
	hdr      enc.RecordHeader
	haveRec  bool
	elemBufs []*Decoder // one per local element, in local order
	extracts int

	// Steady-state scratch, reused across records: refill holds the node's
	// share of the current record's data section (element decoders alias it,
	// so bytes extracted with Raw are invalidated by the next Read, Skip, or
	// Close); hdrScratch is node 0's metadata read buffer.
	refill     []byte
	hdrScratch []byte

	// Read-ahead state (Options.ReadAhead > 0): pre is the queue of
	// prefetched records, oldest first and file-contiguous from cursor;
	// preFree recycles retired share buffers as future prefetch
	// destinations; starts caches the per-rank element split of the
	// reader's distribution (identical for every record the stream
	// accepts).
	pre     []prefetched
	preFree [][]byte
	starts  []int

	// Cost-model planner state (nil planner = an explicit strategy).
	// planDepth is the effective read-ahead depth — the planner's choice
	// under full auto, Options.ReadAhead when set explicitly;
	// planStart/planStrat/planEst feed the per-record observation back.
	planner   *plan.Planner
	planMet   *planMetrics
	planDepth int
	planK     int
	planStrat plan.Strategy
	planEst   float64
	planStart float64
}

// recordMeta is the decoded front matter of one record: header, raw
// distribution descriptor, and the prefix-summed element payload offsets
// within the data section (len NElems+1).
type recordMeta struct {
	h    enc.RecordHeader
	desc []byte
	offs []int64
}

// prefetched is one read-ahead record: decoded metadata plus this rank's
// contiguous share of the data section, whose bytes are valid (in virtual
// time) from completion on. The share was moved by an asynchronous
// collective, so a consumer arriving before completion stalls only for the
// remainder.
type prefetched struct {
	cursor     int64 // file offset of the record's header
	next       int64 // file offset of the record after it
	meta       recordMeta
	chunk      []byte  // this rank's share (pooled; nil for an empty share)
	issued     float64 // virtual time the prefetch was issued
	completion float64 // virtual time the data transfer lands
	// span is the background disk transfer's span ID (0 when not tracing):
	// a prefetch hit links its read span to it, closing the issue→
	// completion→consumption chain in the causal graph.
	span trace.SpanID
}

// commError tags an error whose occurrence may differ across ranks — a
// transport failure seen by this rank only. The prefetch pipeline must
// treat these as fatal: a rank that silently abandoned a prefetch while its
// peers queued one would desynchronize the group's collective schedules.
// Deterministic failures (decode errors, node 0's broadcast read verdict)
// carry no tag and may be abandoned benignly — every rank abandons them
// together, and the consumer's own synchronous Read or Skip surfaces
// whatever is really there. The wrapper is transparent in rendered
// messages.
type commError struct{ err error }

func (e *commError) Error() string { return e.err.Error() }
func (e *commError) Unwrap() error { return e.err }

func isCommErr(err error) bool {
	var ce *commError
	return errors.As(err, &ce)
}

// openInput is the collective open every input constructor funnels into.
// Note that d describes the *reader's* layout; the writer's layout is
// discovered from the file itself (§4.1: "no information about the
// distribution or size of the data to be read needs to be passed to the
// library by the programmer").
func openInput(node *machine.Node, d *distr.Distribution, name string, opts Options) (*IStream, error) {
	if d.NProcs != node.Size() {
		return nil, fmt.Errorf("dstream: distribution over %d procs on a %d-node machine", d.NProcs, node.Size())
	}
	if err := opts.validateFor(dirInput); err != nil {
		return nil, err
	}
	f, err := openFile(node, opts, name, false)
	if err != nil {
		return nil, fmt.Errorf("dstream: open input %q: %w", name, err)
	}
	s := &IStream{
		stream: stream{node: node, dist: d, f: f, name: name, met: newStreamMetrics(node.Monitor()), tag: streamTag(name)},
		opts:   opts,
	}
	// Node 0 validates the file header and broadcasts the verdict.
	verdict := []byte{1}
	if node.Rank() == 0 {
		hdr := make([]byte, enc.FileHeaderLen)
		if err := f.ReadAt(hdr, 0); err != nil {
			verdict = []byte(fmt.Sprintf("read file header: %v", err))
		} else if err := enc.CheckFileHeader(hdr); err != nil {
			verdict = []byte(err.Error())
		}
	}
	verdict, err = node.Comm().Bcast(0, verdict)
	if err != nil {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open sync: %w", err))
	}
	if len(verdict) != 1 || verdict[0] != 1 {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open input %q: %s", name, verdict))
	}
	// The PFS open synchronization (gopen-style control call), as on the
	// output side.
	if err := f.ControlSync(); err != nil {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open sync: %w", err))
	}
	if opts.Strategy == StrategyAuto {
		s.planner = s.newStreamPlanner()
		s.planMet = newPlanMetrics(s.met, node.Rank())
		// Depth starts at the explicit override (0 under full auto — the
		// first record is read synchronously, its broadcast geometry seeds
		// the planner, and the pipeline starts from the second record).
		s.planDepth = opts.ReadAhead
	}
	s.cursor = enc.FileHeaderLen
	// With read-ahead enabled, start the pipeline now so the first Read
	// already overlaps with whatever the consumer does before it.
	s.topUpPrefetch()
	return s, nil
}

// aheadDepth is the effective prefetch depth: the planner's current
// choice on a planned stream, the static option otherwise.
func (s *IStream) aheadDepth() int {
	if s.planner != nil {
		return s.planDepth
	}
	return s.opts.ReadAhead
}

// planRead plans the record described by m and reports whether the
// two-phase refill should serve it. All inputs come from the broadcast
// metadata, so every rank plans identically; the broadcast also equalized
// the group's clocks, making planStart a common origin for the
// observation that follows the data movement.
func (s *IStream) planRead(m recordMeta) bool {
	if s.planner == nil {
		return s.opts.Strategy == StrategyTwoPhase
	}
	g := plan.Geometry{
		NProcs:    s.dist.NProcs,
		NElems:    int(m.h.NElems),
		DataBytes: int64(m.h.DataBytes),
		MetaBytes: enc.RecordHeaderLen + int64(m.h.DescBytes) + m.h.SizeTableBytes(),
	}
	d := s.planner.PlanRead(g, s.opts.Aggregators, s.opts.ReadAhead)
	s.planK = d.Aggregators
	s.planDepth = d.ReadAhead
	s.planStrat = d.Strategy
	s.planEst = d.RawEstimate
	s.planStart = s.node.Clock().Now()
	s.planMet.note(s.planner, d)
	s.planMet.depth.Set(float64(d.ReadAhead))
	if d.Switched {
		s.planSwitchSpan(d)
	}
	return d.Strategy == plan.TwoPhase
}

// observePlanned feeds one planned record's observed virtual cost back to
// the planner. end must be a rank-identical instant (a synchronous
// refill's closing rendezvous, or an asynchronous transfer's completion).
func (s *IStream) observePlanned(end float64) {
	if s.planner == nil {
		return
	}
	obs := end - s.planStart
	s.planner.Observe(s.planStrat, s.planEst, obs)
	s.planMet.observed.Observe(obs)
}

// More reports whether another record remains in the file.
func (s *IStream) More() bool {
	if s.checkOpen() != nil {
		return false
	}
	return s.cursor < s.f.Size()
}

// Read loads the next record with full element-order fidelity: every
// element lands on the node that owns it under the reader's distribution,
// in local order — even when the number of processors or the distribution
// changed since the file was written. This is the two-phase strategy of
// §4.1: a read conforming to the layout on disk, then a redistribution
// among the processors.
func (s *IStream) Read() error { return s.read(true) }

// UnsortedRead loads the next record without ordering guarantees: each node
// receives the right number of element payloads (per the reader's
// distribution) straight from the file, with no interprocessor
// communication — the higher-performance path for data whose element
// indices carry no meaning (§3).
func (s *IStream) UnsortedRead() error { return s.read(false) }

func (s *IStream) read(sorted bool) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkFullyExtracted("read"); err != nil {
		return err
	}
	if !s.More() {
		return s.fail(fmt.Errorf("%w: read past last record", ErrOrder))
	}
	start := s.node.Clock().Now()

	// Steps 1–2: record front matter — served from the prefetch queue when
	// the pipeline has it, read synchronously (node 0 reads, broadcasts)
	// otherwise.
	e, hit := s.takePrefetched()
	var m recordMeta
	if hit {
		// The data transfer was issued in the background; stall only for
		// its un-overlapped remainder.
		s.node.Clock().SyncTo(e.completion)
		overlap := start - e.issued
		if lag := e.completion - e.issued; overlap > lag {
			overlap = lag
		}
		if overlap < 0 {
			overlap = 0
		}
		s.met.prefetchHits.Inc()
		s.met.prefetchOverlap.Observe(overlap)
		m = e.meta
	} else {
		var err error
		if m, err = s.loadMeta(s.cursor); err != nil {
			return s.fail(err)
		}
	}

	wdist, err := distFromHeader(m.h, m.desc)
	if err != nil {
		return s.fail(err)
	}

	offs := m.offs
	dataStart := s.cursor + enc.RecordHeaderLen + int64(m.h.DescBytes) + m.h.SizeTableBytes()

	me := s.node.Rank()
	starts := s.rankStarts()
	lo, hi := starts[me], starts[me+1]

	// Step 3: move this node's contiguous share of the data section out of
	// the file — a prefetched share already sits in memory; otherwise one
	// direct parallel read (conforming to the layout on disk), or, under
	// the two-phase strategy, aggregators that refill stripe-aligned
	// extents once and scatter slices to consumers. A prefetched record
	// was planned when its fetch was issued; a synchronous one is planned
	// here.
	var chunk []byte
	switch {
	case hit:
		if e.chunk != nil {
			s.retireBuf(s.refill)
			s.refill = e.chunk
		}
		chunk = e.chunk
	case s.planRead(m):
		c, _, err := s.refillTwoPhase(dataStart, offs, starts, s.refill, false)
		s.refill = c
		chunk = c
		if err != nil {
			return s.fail(fmt.Errorf("%w: parallel read: %w", ErrIO, err))
		}
		s.observePlanned(s.node.Clock().Now())
	default:
		rg := pfs.Range{Off: dataStart + offs[lo], Len: int(offs[hi] - offs[lo])}
		old := s.refill
		chunk, err = s.f.ParallelReadInto(rg, old[:0])
		if err != nil {
			return s.fail(fmt.Errorf("%w: parallel read: %w", ErrIO, err))
		}
		if rg.Len > 0 {
			if cap(old) < rg.Len {
				// Outgrown: the read came back in a fresh pooled buffer.
				bufpool.Put(old)
			}
			s.refill = chunk
		}
		s.observePlanned(s.node.Clock().Now())
	}
	s.node.CopyCost(int64(len(chunk)))
	if s.planner != nil {
		// Credit the waste governor: this record's bytes were wanted.
		s.planner.ObserveConsumed(int64(m.h.DataBytes))
	}

	// Slice the chunk into per-position payloads.
	payloads := make([][]byte, hi-lo)
	for p := lo; p < hi; p++ {
		payloads[p-lo] = chunk[offs[p]-offs[lo] : offs[p+1]-offs[lo]]
	}

	var bufs [][]byte
	if !sorted || s.dist.SameLayout(wdist) {
		// unsortedRead, or the layouts agree: the contiguous chunk already
		// holds exactly this node's elements (in writer order for the
		// matched case; in arbitrary-but-counted order otherwise).
		bufs = payloads
	} else {
		order := fileOrder(wdist)
		bufs, err = s.redistribute(order[lo:hi], payloads)
		if err != nil {
			return s.fail(fmt.Errorf("%w: redistribute: %w", ErrIO, err))
		}
	}

	if len(s.elemBufs) == len(bufs) {
		for i, b := range bufs {
			s.elemBufs[i].Reset(b)
		}
	} else {
		s.elemBufs = make([]*Decoder, len(bufs))
		for i, b := range bufs {
			d := new(Decoder)
			d.Reset(b)
			s.elemBufs[i] = d
		}
	}
	s.hdr = m.h
	s.haveRec = true
	s.extracts = 0
	s.cursor += m.h.TotalBytes()
	end := s.node.Clock().Now()
	s.met.reads.Inc()
	s.met.refillBytes.Observe(float64(len(chunk)))
	s.met.refillStall.Observe(end - start)
	// Top up the pipeline after the stall metric is cut, so issuing the
	// next prefetches never counts against this read's stall.
	s.topUpPrefetch()
	op := "istream.Read "
	if !sorted {
		op = "istream.UnsortedRead "
	}
	if rec := s.met.mon.Recorder(); rec != nil {
		rid := rec.AddSpan(s.node.Rank(), "dstream", op+s.name, start, end)
		if hit {
			// Close the pipeline chain: issue → background disk transfer →
			// the read that consumed (and possibly stalled on) it.
			rec.AddFlow(e.span, rid, "prefetch")
		}
	}
	return nil
}

// loadMeta reads and validates the front matter of the record at cursor —
// header, distribution descriptor, and size table, each read by node 0 and
// broadcast — and returns the decoded header, the raw descriptor, and the
// prefix-summed payload offsets within the data section (length NElems+1).
// Collective; the caller surfaces the error through s.fail where that is
// warranted.
func (s *IStream) loadMeta(cursor int64) (recordMeta, error) {
	var m recordMeta
	hdr, err := s.bcastBytes(cursor, enc.RecordHeaderLen)
	if err != nil {
		return m, fmt.Errorf("%w: read record header: %w", ErrIO, err)
	}
	h, err := enc.DecodeRecordHeader(hdr)
	if err != nil {
		return m, err
	}
	if int(h.NElems) != s.dist.N {
		return m, fmt.Errorf("dstream: record has %d elements, reader expects %d", h.NElems, s.dist.N)
	}

	// Descriptor and size table — "which appear ahead of the actual data".
	var desc []byte
	if h.DescBytes > 0 {
		desc, err = s.bcastBytes(cursor+enc.RecordHeaderLen, int(h.DescBytes))
		if err != nil {
			return m, fmt.Errorf("%w: read distribution descriptor: %w", ErrIO, err)
		}
	}
	tableRaw, err := s.bcastBytes(cursor+enc.RecordHeaderLen+int64(h.DescBytes), int(h.SizeTableBytes()))
	if err != nil {
		return m, fmt.Errorf("%w: read size table: %w", ErrIO, err)
	}
	sizes, err := enc.DecodeSizeTable(tableRaw, int(h.NElems))
	if err != nil {
		return m, err
	}
	if _, err := distFromHeader(h, desc); err != nil {
		return m, err
	}

	// File-order bookkeeping: offsets of each element payload within the
	// data section.
	n := int(h.NElems)
	offs := make([]int64, n+1)
	for i, sz := range sizes {
		offs[i+1] = offs[i] + int64(sz)
	}
	if uint64(offs[n]) != h.DataBytes {
		return m, fmt.Errorf("dstream: size table sums to %d but record claims %d data bytes", offs[n], h.DataBytes)
	}
	return recordMeta{h: h, desc: desc, offs: offs}, nil
}

// rankStarts returns (caching across records — the reader's distribution
// never changes) the prefix sums of per-rank element counts: starts[r] is
// the first file position owned by rank r, starts[nprocs] the total.
func (s *IStream) rankStarts() []int {
	if s.starts == nil {
		s.starts = make([]int, s.dist.NProcs+1)
		for r := 0; r < s.dist.NProcs; r++ {
			s.starts[r+1] = s.starts[r] + s.dist.LocalCount(r)
		}
	}
	return s.starts
}

// topUpPrefetch issues background fetches until the queue holds ReadAhead
// upcoming records or the file runs out. Every input to the loop — cursor,
// queue contents, file size, record headers — is identical on all ranks,
// so the ranks extend their collective schedules in lockstep. A failed
// prefetch stops the top-up: deterministic failures are abandoned by every
// rank at once and re-surface through the consumer's own synchronous read;
// transport failures fail the stream (see commError).
func (s *IStream) topUpPrefetch() {
	if s.aheadDepth() <= 0 || s.err != nil || s.f == nil {
		return
	}
	next := s.cursor
	if n := len(s.pre); n > 0 {
		next = s.pre[n-1].next
	}
	for len(s.pre) < s.aheadDepth() && next < s.f.Size() {
		e, ok := s.prefetchOne(next)
		if !ok {
			return
		}
		s.pre = append(s.pre, e)
		next = e.next
	}
}

// prefetchOne fetches the record at cursor in the background: front matter
// synchronously (it is small and needed to plan the data transfer), the
// data share with an asynchronous collective whose completion is settled
// only when the record is consumed. ok=false abandons the prefetch.
func (s *IStream) prefetchOne(cursor int64) (prefetched, bool) {
	e := prefetched{cursor: cursor, issued: s.node.Clock().Now()}
	m, err := s.loadMeta(cursor)
	if err != nil {
		if isCommErr(err) {
			s.fail(err)
		}
		return e, false
	}
	e.meta = m
	e.next = cursor + m.h.TotalBytes()
	dataStart := cursor + enc.RecordHeaderLen + int64(m.h.DescBytes) + m.h.SizeTableBytes()
	starts := s.rankStarts()
	dst := s.takeFreeBuf()
	if s.planRead(m) {
		chunk, completion, err := s.refillTwoPhase(dataStart, m.offs, starts, dst, true)
		if err != nil {
			s.retireBuf(chunk)
			if isCommErr(err) {
				s.fail(fmt.Errorf("%w: parallel read: %w", ErrIO, err))
			}
			return e, false
		}
		e.chunk, e.completion = chunk, completion
		e.span = s.f.LastAsyncSpan()
	} else {
		me := s.node.Rank()
		lo, hi := starts[me], starts[me+1]
		rg := pfs.Range{Off: dataStart + m.offs[lo], Len: int(m.offs[hi] - m.offs[lo])}
		chunk, completion, err := s.f.ParallelReadIntoAsync(rg, dst)
		if err != nil {
			// PFS errors reach every rank through the rendezvous, so the
			// abandon is collective — benign.
			s.retireBuf(dst)
			return e, false
		}
		if rg.Len == 0 {
			s.retireBuf(dst)
			chunk = nil
		} else if cap(dst) < rg.Len {
			// Outgrown: the read came back in a fresh pooled buffer.
			bufpool.Put(dst)
		}
		e.chunk, e.completion = chunk, completion
		e.span = s.f.LastAsyncSpan()
	}
	// The async transfer's completion is the same instant on every rank;
	// its distance from the planned start is the record's observed cost,
	// fed back at issue time (ranks run the pipeline in lockstep, so the
	// planner sees observations in the same order everywhere).
	s.observePlanned(e.completion)
	return e, true
}

// takePrefetched pops the queue head when it is the record at the current
// cursor. A stale queue (which cursor movement through Read and Skip never
// produces, but cheap to be safe against) is drained and counted wasted,
// and the caller proceeds synchronously.
func (s *IStream) takePrefetched() (prefetched, bool) {
	if len(s.pre) == 0 {
		return prefetched{}, false
	}
	if s.pre[0].cursor != s.cursor {
		s.dropPrefetched()
		return prefetched{}, false
	}
	e := s.pre[0]
	copy(s.pre, s.pre[1:])
	s.pre[len(s.pre)-1] = prefetched{}
	s.pre = s.pre[:len(s.pre)-1]
	return e, true
}

// dropPrefetched discards every queued prefetch, counting the fetched data
// as wasted and recycling the share buffers.
func (s *IStream) dropPrefetched() {
	for i := range s.pre {
		s.met.prefetchWasted.Add(int64(len(s.pre[i].chunk)))
		s.retireBuf(s.pre[i].chunk)
		s.pre[i] = prefetched{}
	}
	s.pre = s.pre[:0]
}

// retireBuf recycles a pooled buffer this stream no longer needs: onto the
// local free list while prefetching (destinations turn over every record;
// the list is bounded by the queue depth plus the refill slot), back to
// the shared pool otherwise. nil is a no-op.
func (s *IStream) retireBuf(b []byte) {
	if b == nil {
		return
	}
	if d := s.aheadDepth(); d > 0 && len(s.preFree) <= d {
		s.preFree = append(s.preFree, b)
		return
	}
	bufpool.Put(b)
}

// takeFreeBuf pops a recycled prefetch destination (length reset), or
// returns nil, in which case the read path draws from the shared pool.
func (s *IStream) takeFreeBuf() []byte {
	n := len(s.preFree)
	if n == 0 {
		return nil
	}
	b := s.preFree[n-1]
	s.preFree[n-1] = nil
	s.preFree = s.preFree[:n-1]
	return b[:0]
}

// bcastBytes has node 0 read [off, off+n) and broadcast it. The broadcast
// frame is per-call (the caller may hold the result across the next
// bcastBytes, e.g. the descriptor across the size-table read), but node 0's
// read scratch is reused across records.
func (s *IStream) bcastBytes(off int64, n int) ([]byte, error) {
	var buf []byte
	var readErr string
	if s.node.Rank() == 0 {
		if cap(s.hdrScratch) < n {
			s.hdrScratch = make([]byte, n)
		}
		buf = s.hdrScratch[:n]
		if n > 0 {
			if err := s.f.ReadAt(buf, off); err != nil {
				readErr = err.Error()
				buf = nil
			}
		}
	}
	// Broadcast a status byte plus the payload so all ranks agree on errors.
	var frame []byte
	if s.node.Rank() == 0 {
		if readErr != "" {
			frame = append([]byte{0}, readErr...)
		} else {
			frame = append([]byte{1}, buf...)
		}
	}
	frame, err := s.node.Comm().Bcast(0, frame)
	if err != nil {
		// Transport failure: possibly rank-asymmetric, so the prefetch
		// pipeline must not abandon on it silently (see commError).
		return nil, &commError{err}
	}
	if len(frame) == 0 || frame[0] != 1 {
		return nil, fmt.Errorf("node 0 read failed: %s", frame[1:])
	}
	return frame[1:], nil
}

// redistribute is phase two of the sorted read: each element read from disk
// is routed to the node that owns it under the reader's distribution, and
// placed at its local index. globals[i] is the global element index of
// payloads[i].
func (s *IStream) redistribute(globals []int, payloads [][]byte) ([][]byte, error) {
	me := s.node.Rank()
	nprocs := s.dist.NProcs
	out := make([][]byte, s.dist.LocalCount(me))

	// Pack one buffer per destination: (u32 global, u32 len, payload)*.
	var sendBytes int64
	outBufs := make([]enc.Buffer, nprocs)
	for i, g := range globals {
		owner := s.dist.Owner(g)
		if owner == me {
			out[s.dist.LocalIndex(g)] = payloads[i]
			continue
		}
		outBufs[owner].Uint32(uint32(g))
		outBufs[owner].Bytes32(payloads[i])
		sendBytes += int64(8 + len(payloads[i]))
	}
	s.node.CopyCost(sendBytes)

	bufs := make([][]byte, nprocs)
	for r := range bufs {
		bufs[r] = outBufs[r].Bytes()
	}
	recv, err := s.node.Comm().Alltoallv(bufs)
	if err != nil {
		return nil, fmt.Errorf("dstream: redistribute: %w", err)
	}
	var d enc.Reader
	for r, b := range recv {
		if r == me {
			bufpool.Put(b) // own elements were placed directly
			continue
		}
		d.Reset(b)
		for d.Remaining() > 0 {
			g := int(d.Uint32())
			p := d.Bytes32()
			if d.Err() != nil {
				return nil, fmt.Errorf("dstream: redistribute decode from %d: %w", r, d.Err())
			}
			if s.dist.Owner(g) != me {
				return nil, fmt.Errorf("dstream: element %d misrouted to rank %d", g, me)
			}
			out[s.dist.LocalIndex(g)] = p
		}
		// Bytes32 copies each payload out, so the frame can go back.
		bufpool.Put(b)
	}
	for l, b := range out {
		if b == nil {
			return nil, fmt.Errorf("dstream: local slot %d (global %d) never arrived",
				l, s.dist.GlobalIndex(me, l))
		}
	}
	return out, nil
}

// Skip advances past the next record without loading its data. It enables
// the paper's multiple-streams-per-file pattern ("Multiple d/streams may be
// set up and connected to the same file if collections with differing
// distributions and alignments are to be output"): each input stream reads
// the records that match its distribution and skips the others, in file
// order. Only the record header is read (by node 0, broadcast).
func (s *IStream) Skip() error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkFullyExtracted("skip"); err != nil {
		return err
	}
	if !s.More() {
		return s.fail(fmt.Errorf("%w: skip past last record", ErrOrder))
	}
	if e, ok := s.takePrefetched(); ok {
		// Already fetched: no I/O to do, but the prefetched data dies
		// unread.
		s.met.prefetchWasted.Add(int64(len(e.chunk)))
		if s.planner != nil {
			// Debit the waste governor with the record's rank-identical
			// total (Skip is collective, so every rank debits together);
			// enough skipped bytes and the planner stops prefetching.
			s.planner.ObserveWasted(int64(e.meta.h.DataBytes))
		}
		s.retireBuf(e.chunk)
		s.cursor = e.next
		s.haveRec = false
		s.elemBufs = nil
		s.met.skips.Inc()
		s.topUpPrefetch()
		return nil
	}
	hdr, err := s.bcastBytes(s.cursor, enc.RecordHeaderLen)
	if err != nil {
		return s.fail(fmt.Errorf("dstream: skip record header: %w", err))
	}
	h, err := enc.DecodeRecordHeader(hdr)
	if err != nil {
		return s.fail(err)
	}
	s.cursor += h.TotalBytes()
	s.haveRec = false
	s.elemBufs = nil
	s.met.skips.Inc()
	s.topUpPrefetch()
	return nil
}

// NextElems peeks at the next record's element count without consuming it,
// so a reader owning several input streams can decide which one should
// read the upcoming record. Returns ErrOrder at end of file.
func (s *IStream) NextElems() (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	if !s.More() {
		return 0, fmt.Errorf("%w: no next record", ErrOrder)
	}
	if len(s.pre) > 0 && s.pre[0].cursor == s.cursor {
		// Peek the prefetch queue: no I/O, no communication (the queues
		// are identical on every rank, so skipping the broadcast is
		// collective-consistent).
		return int(s.pre[0].meta.h.NElems), nil
	}
	hdr, err := s.bcastBytes(s.cursor, enc.RecordHeaderLen)
	if err != nil {
		return 0, s.fail(fmt.Errorf("dstream: peek record header: %w", err))
	}
	h, err := enc.DecodeRecordHeader(hdr)
	if err != nil {
		return 0, s.fail(err)
	}
	return int(h.NElems), nil
}

// ExtractFunc is the low-level extract primitive: take is called once per
// locally owned element, in local order, with that element's decoder
// positioned at the next array of the record. Each call to ExtractFunc
// consumes one insert's worth of data, in insertion order.
func (s *IStream) ExtractFunc(take func(local int, d *Decoder)) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if !s.haveRec {
		return s.fail(fmt.Errorf("%w: extract before read", ErrOrder))
	}
	if s.extracts >= int(s.hdr.NArrays) {
		return s.fail(fmt.Errorf("%w: record has %d arrays, extract #%d requested",
			ErrOrder, s.hdr.NArrays, s.extracts+1))
	}
	for l, d := range s.elemBufs {
		take(l, d)
		if err := d.Err(); err != nil {
			return s.fail(fmt.Errorf("dstream: extract element (local %d): %w", l, err))
		}
	}
	s.extracts++
	s.met.extracts.Inc()
	s.node.Compute(float64(len(s.elemBufs)) * s.node.Profile().PerElemCost)
	return nil
}

// Arrays returns the number of arrays in the current record (0 before the
// first read).
func (s *IStream) Arrays() int {
	if !s.haveRec {
		return 0
	}
	return int(s.hdr.NArrays)
}

// Extracted returns how many arrays of the current record have been
// extracted.
func (s *IStream) Extracted() int { return s.extracts }

// LocalLen returns the number of elements this node receives per record.
func (s *IStream) LocalLen() int { return s.dist.LocalCount(s.node.Rank()) }

// checkFullyExtracted enforces Strict mode: the current record must be
// fully drained before moving on.
func (s *IStream) checkFullyExtracted(op string) error {
	if !s.opts.Strict || !s.haveRec {
		return nil
	}
	if s.extracts < int(s.hdr.NArrays) {
		return s.fail(fmt.Errorf("%w: %s with %d of %d arrays unextracted (Strict)",
			ErrOrder, op, int(s.hdr.NArrays)-s.extracts, s.hdr.NArrays))
	}
	return nil
}

// Close releases the stream (idempotent). In Strict mode, closing with a
// partially extracted record is an error.
func (s *IStream) Close() error {
	if s.f == nil {
		return nil
	}
	// Release the pipeline first: queued prefetches die unread (counted
	// wasted) and the recycled destinations go back to the shared pool.
	s.dropPrefetched()
	for i, b := range s.preFree {
		bufpool.Put(b)
		s.preFree[i] = nil
	}
	s.preFree = nil
	err := s.f.Close()
	s.f = nil
	bufpool.Put(s.refill)
	s.refill = nil
	s.elemBufs = nil
	if err == nil && s.opts.Strict && s.haveRec && s.extracts < int(s.hdr.NArrays) {
		err = fmt.Errorf("%w: close with %d of %d arrays unextracted (Strict)",
			ErrOrder, int(s.hdr.NArrays)-s.extracts, s.hdr.NArrays)
	}
	return err
}

// Node returns the owning node.
func (s *IStream) Node() *machine.Node { return s.node }

// Dist returns the reader's distribution.
func (s *IStream) Dist() *distr.Distribution { return s.dist }
