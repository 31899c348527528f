package pfs

import (
	"sync"

	"pcxxstreams/internal/vtime"
)

// disk models the timing behaviour of the storage subsystem behind one
// file: a set of I/O channels (Paragon PFS: effectively one, node-order
// serialized; SGI Challenge: one per CPU up to the bus limit), each with a
// "free at" horizon in virtual time.
//
// Two timing laws, calibrated against the paper's tables:
//
//   - Small independent operations (the unbuffered baseline) pay IOOpLatency
//     per call while the file region being touched still fits the OS write
//     cache (offset < SlowOffset) and IOOpSlow once past it — reproducing
//     the Paragon cliff between the 2.8 MB and 5.6 MB points of Tables 1-2.
//
//   - Block transfers stream at DiskFastBW for the portion of a node's block
//     that fits the per-node write cache (BlockCache) and at DiskSlowBW
//     beyond — reproducing the manual-buffering cliff when per-node blocks
//     outgrow the cache (11.2 MB on 4 processors vs 8 in Tables 1-2).
type disk struct {
	mu       sync.Mutex
	prof     vtime.Profile
	chanFree []float64
}

func newDisk(prof vtime.Profile) *disk {
	c := prof.IOChannels
	if c <= 0 {
		c = 1
	}
	return &disk{prof: prof, chanFree: make([]float64, c)}
}

// reset clears every channel's horizon, for a run whose clocks restart at 0.
func (d *disk) reset() {
	d.mu.Lock()
	clear(d.chanFree)
	d.mu.Unlock()
}

// opCost returns the service time of one I/O call moving n bytes.
// slowEligible marks an op that falls outside the OS cache: for writes,
// the target offset is past the cache horizon; for reads, the whole file
// no longer fits the cache (after writing a large file, nothing of it is
// still cached, so every small read seeks). The write-cache bandwidth
// cliff applies to writes only.
func (d *disk) opCost(n int64, write, slowEligible bool) float64 {
	p := &d.prof
	lat := p.IOOpLatency
	if n <= p.SmallOp && slowEligible {
		lat = p.IOOpSlow
	}
	return lat + d.streamCost(n, write)
}

// streamCost is the bandwidth term: the part of a written block within the
// per-node write cache streams fast, the remainder at raw disk speed;
// reads always stream at the fast rate.
func (d *disk) streamCost(n int64, write bool) float64 {
	p := &d.prof
	fast := n
	var slow int64
	if write && p.BlockCache > 0 && n > p.BlockCache {
		fast = p.BlockCache
		slow = n - p.BlockCache
	}
	return vtime.TransferTime(fast, p.DiskFastBW) + vtime.TransferTime(slow, p.DiskSlowBW)
}

// submit services one independent operation issued by rank at virtual time
// arrival, moving n bytes at offset off, and returns its completion time.
// Each rank is pinned to channel rank % C, so timing is deterministic per
// rank; ranks sharing a channel serialize, which is how the single-channel
// Paragon profile makes total unbuffered time depend on total operation
// count rather than on the processor count (Tables 1 vs 2).
func (d *disk) submit(rank int, arrival float64, n int64, write, slowEligible bool) float64 {
	cost := d.opCost(n, write, slowEligible)
	ch := rank % len(d.chanFree)
	d.mu.Lock()
	defer d.mu.Unlock()
	start := vtime.Max(arrival, d.chanFree[ch])
	end := start + cost
	d.chanFree[ch] = end
	return end
}

// parallel services a synchronized node-order transfer: every node
// contributes a block of sizes[rank] bytes; all nodes block until the whole
// operation completes, and all leave at the same completion time.
//
// The cost law: start at the latest arrival, pay the per-node serialized
// control cost (SerialPerOp × nprocs), then the blocks are dealt to the
// channels by rank and the op takes the heaviest channel's total streaming
// time. C=1 degenerates to the sum of the blocks (Paragon); C ≥ nprocs to
// the max (Challenge).
func (d *disk) parallel(arrivals []float64, sizes []int64, write bool) float64 {
	start := vtime.MaxOf(arrivals)
	n := len(sizes)
	c := len(d.chanFree)
	load := make([]float64, c)
	for r, sz := range sizes {
		if sz > 0 {
			load[r%c] += d.prof.IOOpLatency + d.streamCost(sz, write)
		}
	}
	opTime := 0.0
	for _, l := range load {
		if l > opTime {
			opTime = l
		}
	}
	end := start + float64(n)*d.prof.SerialPerOp + opTime
	d.mu.Lock()
	for ch := range d.chanFree {
		if end > d.chanFree[ch] {
			d.chanFree[ch] = end
		}
	}
	d.mu.Unlock()
	return end
}

// control services a synchronizing control operation (metadata sync): all
// nodes leave at max(arrivals) + ControlOpLatency.
func (d *disk) control(arrivals []float64) float64 {
	return vtime.MaxOf(arrivals) + d.prof.ControlOpLatency
}
