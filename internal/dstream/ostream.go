package dstream

import (
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/plan"
	"pcxxstreams/internal/trace"
)

// OStream is an output d/stream: a per-node buffer bound to a file, into
// which aligned collections are inserted and then written with one parallel
// operation per record. Declare one per distribution/alignment, as in the
// paper: `oStream s(&d, &a, "wholeGridFile")`.
type OStream struct {
	stream
	opts Options
	// group is the current interleave group: one entry per insert since
	// the last write; each entry holds the encoded payload of every local
	// element, in local order.
	group [][][]byte
	// groupBytes tracks the encoded payload bytes buffered in group — the
	// buffer fill level the dstream_buffer_fill_bytes gauge reports.
	groupBytes int64
	wrote      int // records written
	// pending is the completion time of the latest asynchronous write; the
	// clock must reach it before the stream's data is durable.
	pending float64

	// Steady-state scratch: the element encoder reused across inserts, the
	// per-insert payload-slice arrays recycled between flushes (their pooled
	// payloads are released at each Write), and the local size table reused
	// across flushes.
	encScratch  Encoder
	arrFree     [][][]byte
	sizeScratch []uint32

	// Causal-graph state, all zero when the run is not tracing: the span
	// IDs of the inserts encoded into the record being flushed (each gets
	// an encode→write edge), the record flush span (reserved before the
	// strategy runs so the shuffle can link to it), and the async disk
	// spans the next Drain will wait on.
	insertSpans  []trace.SpanID
	writeSpan    trace.SpanID
	pendingSpans []trace.SpanID

	// Cost-model planner state (nil planner = an explicit strategy).
	// descLen caches the descriptor section's byte length (it never
	// changes between records); planTotal carries the record's agreed
	// total data bytes from the plan agreement to writeParallel, which
	// then skips its own Allreduce; planStart/planStrat/planEst feed the
	// post-flush observation back to the planner.
	planner   *plan.Planner
	planMet   *planMetrics
	descLen   int
	planK     int
	planTotal int64
	planStrat plan.Strategy
	planEst   float64
	planStart float64
}

// openOutput is the collective open every output constructor funnels into.
// Every node of the machine must make the matching call.
func openOutput(node *machine.Node, d *distr.Distribution, name string, opts Options) (*OStream, error) {
	if d.NProcs != node.Size() {
		return nil, fmt.Errorf("dstream: distribution over %d procs on a %d-node machine", d.NProcs, node.Size())
	}
	if err := opts.validateFor(dirOutput); err != nil {
		return nil, err
	}
	f, err := openFile(node, opts, name, !opts.Append)
	if err != nil {
		return nil, fmt.Errorf("dstream: open output %q: %w", name, err)
	}
	s := &OStream{
		stream: stream{node: node, dist: d, f: f, name: name, met: newStreamMetrics(node.Monitor()), tag: streamTag(name)},
		opts:   opts,
	}
	if opts.Strategy == StrategyAuto {
		s.planner = s.newStreamPlanner()
		s.planMet = newPlanMetrics(s.met, node.Rank())
		_, desc := headerFor(d, 1, 0)
		s.descLen = len(desc)
	}
	// Node 0 stamps (or, in append mode, validates) the file header; the
	// control sync both orders that before any parallel append and models
	// the PFS open synchronization.
	if opts.Append {
		// Node 0 validates the existing header and broadcasts the verdict,
		// so a bad file fails every node together instead of leaving peers
		// waiting at the open rendezvous.
		verdict := []byte{1}
		if node.Rank() == 0 {
			hdr := make([]byte, enc.FileHeaderLen)
			if err := f.ReadAt(hdr, 0); err != nil {
				verdict = []byte(err.Error())
			} else if err := enc.CheckFileHeader(hdr); err != nil {
				verdict = []byte(err.Error())
			}
		}
		verdict, err := node.Comm().Bcast(0, verdict)
		if err != nil {
			f.Close()
			return nil, s.fail(fmt.Errorf("dstream: append open sync: %w", err))
		}
		if len(verdict) != 1 || verdict[0] != 1 {
			f.Close()
			return nil, s.fail(fmt.Errorf("dstream: append to %q: %s", name, verdict))
		}
	} else if node.Rank() == 0 {
		if err := f.WriteAt(enc.EncodeFileHeader(), 0); err != nil {
			f.Close()
			return nil, s.fail(fmt.Errorf("dstream: write file header: %w", err))
		}
	}
	if err := f.ControlSync(); err != nil {
		f.Close()
		return nil, s.fail(fmt.Errorf("dstream: open sync: %w", err))
	}
	return s, nil
}

// LocalLen returns the number of elements this node contributes per insert.
func (s *OStream) LocalLen() int { return s.dist.LocalCount(s.node.Rank()) }

// Pending returns the number of inserts in the current interleave group.
func (s *OStream) Pending() int { return len(s.group) }

// Records returns the number of records written so far.
func (s *OStream) Records() int { return s.wrote }

// FileSize returns the current byte length of the underlying file image
// (header plus all committed records). Checkpoint managers use it to seal
// commit markers.
func (s *OStream) FileSize() int64 {
	if s.f == nil {
		return 0
	}
	return s.f.Size()
}

// InsertFunc is the low-level insert primitive: fill is called once per
// locally owned element, in local order, and appends that element's payload
// to the encoder. The generic helpers (Insert, InsertField, …) are built on
// it. Inserting charges the per-element pointer-list traversal cost of
// Figure 4.
func (s *OStream) InsertFunc(fill func(local int, e *Encoder)) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	start := s.node.Clock().Now()
	n := s.LocalLen()
	var arr [][]byte
	if f := len(s.arrFree); f > 0 && cap(s.arrFree[f-1]) >= n {
		arr = s.arrFree[f-1][:n]
		s.arrFree = s.arrFree[:f-1]
	} else {
		arr = make([][]byte, n)
	}
	e := &s.encScratch
	var arrBytes int64
	for l := 0; l < n; l++ {
		e.Reset()
		fill(l, e)
		p := bufpool.Get(e.Len())
		copy(p, e.Bytes())
		arr[l] = p
		arrBytes += int64(len(p))
	}
	s.group = append(s.group, arr)
	s.groupBytes += arrBytes
	s.met.inserts.Inc()
	s.met.fill.Add(float64(arrBytes))
	s.node.Compute(float64(n) * s.node.Profile().PerElemCost)
	if rec := s.met.mon.Recorder(); rec != nil {
		id := rec.AddSpan(s.node.Rank(), "dstream", "ostream.Insert "+s.name, start, s.node.Clock().Now())
		s.insertSpans = append(s.insertSpans, id)
	}
	return nil
}

// Write flushes the current interleave group as one record (§4.1): the
// per-element pointer lists are traversed, data is packed into the per-node
// buffer, the metadata (distribution descriptor and per-element sizes) is
// placed ahead of the data — through node 0 for small collections, with a
// parallel write for large ones — and the data is written with one parallel
// operation in node order.
func (s *OStream) Write() error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if len(s.group) == 0 {
		return s.fail(fmt.Errorf("%w: write with no pending inserts", ErrOrder))
	}
	start := s.node.Clock().Now()
	nArrays := len(s.group)
	nLocal := s.LocalLen()
	rec := s.met.mon.Recorder()
	if rec != nil {
		// Reserve the flush span up front: the encode edges below and the
		// two-phase shuffle's stripe-write edges reference it before the
		// span's end time is known.
		s.writeSpan = rec.NewSpanID()
		for _, id := range s.insertSpans {
			rec.AddFlow(id, s.writeSpan, "encode")
		}
		s.insertSpans = s.insertSpans[:0]
	}

	// Per-element sizes (local order) with the group's arrays interleaved.
	if cap(s.sizeScratch) < nLocal {
		s.sizeScratch = make([]uint32, nLocal)
	}
	localSizes := s.sizeScratch[:nLocal]
	for l := range localSizes {
		localSizes[l] = 0
	}
	var localBytes int
	for _, arr := range s.group {
		for l, p := range arr {
			localSizes[l] += uint32(len(p))
			localBytes += len(p)
		}
	}
	// Pack the per-node data buffer: element-major, interleaving the
	// group's arrays (Figure 4's pointer-list traversal). The pooled element
	// payloads are released as soon as their bytes are packed; the emptied
	// per-insert arrays are recycled for the next group.
	data := bufpool.GetCap(localBytes)
	for l := 0; l < nLocal; l++ {
		for _, arr := range s.group {
			data = append(data, arr[l]...)
		}
	}
	for _, arr := range s.group {
		for l, p := range arr {
			bufpool.Put(p)
			arr[l] = nil
		}
		s.arrFree = append(s.arrFree, arr)
	}
	s.node.CopyCost(int64(localBytes) + int64(4*nLocal))
	s.group = s.group[:0]
	s.met.fill.Add(-float64(s.groupBytes))
	s.groupBytes = 0

	var werr error
	strat := s.opts.Strategy
	if s.planner != nil {
		strat, werr = s.planRecord(localBytes)
	}
	if werr == nil {
		switch strat {
		case StrategyFunnel:
			werr = s.writeFunnel(nArrays, localSizes, data)
		case StrategyTwoPhase:
			werr = s.writeTwoPhase(nArrays, localSizes, data)
		default:
			werr = s.writeParallel(nArrays, localSizes, data)
		}
	}
	// Every strategy's bytes are on the wire or in the file by the time it
	// returns (parallel appends complete inside the rendezvous, transports
	// copy on send), so the packed buffer can be released even on failure.
	bufpool.Put(data)
	if werr != nil {
		return s.fail(fmt.Errorf("%w: %w", ErrIO, werr))
	}
	s.wrote++
	end := s.node.Clock().Now()
	if s.planner != nil {
		// The strategy's closing rendezvous left every rank's clock at the
		// same instant, and planStart was equalized by the plan agreement:
		// the delta is a rank-identical observation, fed back for free.
		obs := end - s.planStart
		s.planner.Observe(s.planStrat, s.planEst, obs)
		s.planMet.observed.Observe(obs)
	}
	s.met.writes.Inc()
	s.met.flushBytes.Observe(float64(localBytes))
	s.met.flushStall.Observe(end - start)
	if rec != nil {
		rec.AddSpanID(s.writeSpan, s.node.Rank(), "dstream", "ostream.Write "+s.name, start, end)
	}
	return nil
}

// planRecord agrees on the record's total data bytes — one 8-byte
// Allreduce, the same agreement writeParallel performs anyway, hoisted
// ahead of the strategy choice — and asks the planner for this record's
// plan. The Allreduce both supplies a rank-identical geometry and
// equalizes the group's virtual clocks, so every rank picks the same
// strategy with no further communication and the post-flush clock delta
// is a common observation.
func (s *OStream) planRecord(localBytes int) (Strategy, error) {
	total, err := s.node.Comm().Allreduce(float64(localBytes), collective.OpSum)
	if err != nil {
		return StrategyAuto, fmt.Errorf("dstream: plan agreement: %w", err)
	}
	s.planTotal = int64(total)
	g := plan.Geometry{
		NProcs:    s.dist.NProcs,
		NElems:    s.dist.N,
		DataBytes: s.planTotal,
		MetaBytes: s.metaBytesFor(s.descLen),
	}
	d := s.planner.PlanWrite(g, s.opts.Aggregators)
	s.planK = d.Aggregators
	s.planStrat = d.Strategy
	s.planEst = d.RawEstimate
	s.planStart = s.node.Clock().Now()
	s.planMet.note(s.planner, d)
	if d.Switched {
		s.planSwitchSpan(d)
	}
	return fromPlanStrategy(d.Strategy), nil
}

// writeFunnel gathers the size table to node 0, which writes the record
// header and the whole table at the head of its per-node block; one
// parallel append moves everything (§4.1: "collected into node zero and
// placed at the head of the per-node buffer on that node so that it can be
// written with the actual data").
func (s *OStream) writeFunnel(nArrays int, localSizes []uint32, data []byte) error {
	comm := s.node.Comm()
	st := enc.AppendSizeTable(bufpool.GetCap(4*len(localSizes)), localSizes)
	parts, err := comm.Gather(0, st)
	if err != nil {
		bufpool.Put(st)
		return fmt.Errorf("dstream: gather sizes: %w", err)
	}
	if s.node.Rank() != 0 {
		// The transport copied st on send; the non-root block is just data,
		// which Write releases.
		bufpool.Put(st)
		return s.appendRecordBlock(data, "funnel append")
	}
	allSizes := bufpool.GetCap(4 * s.dist.N)
	for _, p := range parts {
		allSizes = append(allSizes, p...)
	}
	// parts[0] aliases st (Gather returns the root's own contribution
	// as-is); the rest arrived from the wire and are ours to release.
	for r, p := range parts {
		if r != 0 {
			bufpool.Put(p)
		}
	}
	bufpool.Put(st)
	total, derr := enc.SumSizeTable(allSizes, s.dist.N)
	if derr != nil {
		bufpool.Put(allSizes)
		return fmt.Errorf("dstream: reassemble size table: %w", derr)
	}
	h, desc := headerFor(s.dist, nArrays, total)
	block := bufpool.GetCap(enc.RecordHeaderLen + len(desc) + len(allSizes) + len(data))
	block = h.AppendTo(block)
	block = append(block, desc...)
	block = append(block, allSizes...)
	block = append(block, data...)
	bufpool.Put(allSizes)
	err = s.appendRecordBlock(block, "funnel append")
	bufpool.Put(block)
	return err
}

// appendRecordBlock moves one per-node block to the file, synchronously or
// write-behind per Options.Async.
func (s *OStream) appendRecordBlock(block []byte, what string) error {
	if s.opts.Async {
		_, completion, err := s.f.ParallelAppendAsync(block)
		if err != nil {
			return fmt.Errorf("dstream: %s: %w", what, err)
		}
		if completion > s.pending {
			s.pending = completion
		}
		// The disk keeps transferring past this point while the node
		// computes: the write-behind overlap the paper's synchronous
		// primitive cannot have.
		if overlap := completion - s.node.Clock().Now(); overlap > 0 {
			s.met.asyncOverlap.Observe(overlap)
		}
		if id := s.f.LastAsyncSpan(); id != 0 {
			s.pendingSpans = append(s.pendingSpans, id)
		}
		return nil
	}
	if _, err := s.f.ParallelAppend(block); err != nil {
		return fmt.Errorf("dstream: %s: %w", what, err)
	}
	return nil
}

// Drain blocks (in virtual time) until every asynchronous write has landed
// on disk. A no-op for synchronous streams.
func (s *OStream) Drain() {
	now := s.node.Clock().Now()
	if stall := s.pending - now; stall > 0 {
		s.met.drainStall.Observe(stall)
		if rec := s.met.mon.Recorder(); rec != nil {
			id := rec.AddSpan(s.node.Rank(), "dstream", "ostream.Drain "+s.name, now, s.pending)
			// Link the drain to the async disk spans it is waiting out.
			for _, p := range s.pendingSpans {
				rec.AddFlow(p, id, "drain")
			}
		}
	}
	s.pendingSpans = s.pendingSpans[:0]
	s.node.Clock().SyncTo(s.pending)
}

// writeParallel writes the metadata section with its own parallel append
// (node 0 prefixes the record header to its slice of the size table), then
// the data section with a second parallel append.
func (s *OStream) writeParallel(nArrays int, localSizes []uint32, data []byte) error {
	var total float64
	if s.planner != nil {
		// The plan agreement already summed the group's data bytes; don't
		// pay a second Allreduce.
		total = float64(s.planTotal)
	} else {
		var err error
		total, err = s.node.Comm().Allreduce(float64(len(data)), collective.OpSum)
		if err != nil {
			return fmt.Errorf("dstream: sum data bytes: %w", err)
		}
	}
	var meta []byte
	if s.node.Rank() == 0 {
		h, desc := headerFor(s.dist, nArrays, uint64(total))
		meta = bufpool.GetCap(enc.RecordHeaderLen + len(desc) + 4*len(localSizes))
		meta = h.AppendTo(meta)
		meta = append(meta, desc...)
		meta = enc.AppendSizeTable(meta, localSizes)
	} else {
		meta = enc.AppendSizeTable(bufpool.GetCap(4*len(localSizes)), localSizes)
	}
	_, err := s.f.ParallelAppend(meta)
	bufpool.Put(meta)
	if err != nil {
		return fmt.Errorf("dstream: meta append: %w", err)
	}
	return s.appendRecordBlock(data, "data append")
}

// Close releases the stream. As in pC++/streams, where close lives in the
// d/stream destructor, Close is idempotent and safe to defer.
func (s *OStream) Close() error {
	if s.f == nil {
		return nil
	}
	s.Drain()
	err := s.f.Close()
	s.f = nil
	if len(s.group) > 0 {
		// Data inserted but never written is lost; surface it.
		if err == nil {
			err = fmt.Errorf("%w: close with %d unwritten inserts", ErrOrder, len(s.group))
		}
	}
	return err
}

// Node returns the owning node.
func (s *OStream) Node() *machine.Node { return s.node }

// Dist returns the stream's distribution.
func (s *OStream) Dist() *distr.Distribution { return s.dist }
