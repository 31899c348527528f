package comm

import (
	"sync"
	"sync/atomic"

	"pcxxstreams/internal/dsmon"
)

// This file holds the lock-free machinery under the mailbox: a bounded
// MPMC ring per (sender, receiver) pair and the broadcast wakeup gates
// that replace the old mutex + condition variable. The shape follows the
// classic bounded MPMC queue (per-slot sequence stamps, CAS'd head and
// tail indices): steady-state enqueue and dequeue are a CAS plus two
// atomic loads each, with no locks anywhere on the send path.
//
// The ring is MPMC rather than SPSC even though the common producer for a
// (sender, receiver) pair is one rank goroutine: retransmission layers
// (chaos delay/duplicate faults) deliver copies from timer goroutines, and
// the TCP transport's read loops produce on behalf of remote ranks — so
// multiple producers per pair are a fact of the system, not a corner case.

// defaultRingCap is the per-pair ring capacity (must be a power of two).
// 128 slots absorb a full collective chunk window; a producer that
// outruns its consumer by more than this blocks (bulk payloads on the
// in-process transport) or spills to the unbounded overflow (wire readers
// and small eager messages), but never drops.
const defaultRingCap = 128

type ringSlot struct {
	seq atomic.Uint64
	msg Message
}

// ring is the bounded lock-free MPMC queue. A slot's sequence stamp
// encodes its state: seq == tail means free for the producer claiming
// tail, seq == head+1 means filled for the consumer claiming head, and
// the stamp advances by the capacity on each reuse so late producers and
// consumers always observe a stale stamp and retry or report full/empty.
type ring struct {
	mask  uint64
	slots []ringSlot
	_     [48]byte // keep head and tail on separate cache lines
	head  atomic.Uint64
	_     [56]byte
	tail  atomic.Uint64
}

func newRing(capacity int) *ring {
	if capacity&(capacity-1) != 0 || capacity <= 0 {
		panic("comm: ring capacity must be a positive power of two")
	}
	r := &ring{mask: uint64(capacity - 1), slots: make([]ringSlot, capacity)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// tryPut claims the tail slot and stores m. It returns false when the
// ring is full — the caller decides between blocking (in-process senders)
// and spilling to the overflow list (wire readers, which must not stall).
func (r *ring) tryPut(m Message) bool {
	for {
		tail := r.tail.Load()
		s := &r.slots[tail&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == tail:
			if r.tail.CompareAndSwap(tail, tail+1) {
				s.msg = m
				s.seq.Store(tail + 1) // publish: consumer may take the slot now
				return true
			}
		case seq < tail:
			return false // the consumer has not freed this slot yet: full
		}
		// seq > tail: another producer advanced the tail under us; retry.
	}
}

// tryTake claims the head slot and returns its message, or false when the
// ring is empty.
func (r *ring) tryTake() (Message, bool) {
	for {
		head := r.head.Load()
		s := &r.slots[head&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == head+1:
			if r.head.CompareAndSwap(head, head+1) {
				m := s.msg
				s.msg = Message{} // drop the payload reference with the slot
				s.seq.Store(head + uint64(len(r.slots)))
				return m, true
			}
		case seq < head+1:
			return Message{}, false // the producer has not filled it: empty
		}
	}
}

// gate is a broadcast wakeup point. A waiter registers (enter), re-checks
// its condition, and parks on the token channel enter returned; wake posts
// to every registered token, releasing every parked waiter at once. When
// nobody waits, wake is a single atomic load — the cost the hot send path
// pays per message.
//
// Tokens are one-slot channels recycled through the gate's free list, so a
// park allocates nothing once the gate has seen its peak number of
// concurrent waiters. Waking by closing a channel would need a new channel
// for every park, since a closed one cannot be reopened, and the receive
// path's allocations would then depend on whether its message had arrived.
//
// The missed-wakeup argument: a waiter registers its token and then
// increments waiters before its re-check, and a producer publishes its
// message before wake loads waiters. Both operations are sequentially
// consistent atomics, so either the producer observes the waiter (and,
// under mu, the token it parks on), or the waiter's re-check observes the
// message. There is no interleaving in which the message is published, the
// waiter parks, and nobody wakes it.
type gate struct {
	waiters atomic.Int32
	mu      sync.Mutex
	parked  []chan struct{} // tokens of registered waiters not yet woken
	free    []chan struct{} // drained tokens awaiting reuse
}

// enter registers the caller as a waiter and returns the token to park
// on. The caller must re-check its wakeup condition between enter and
// parking, and must call leave with the token exactly once afterward.
func (g *gate) enter() chan struct{} {
	g.mu.Lock()
	var t chan struct{}
	if n := len(g.free); n > 0 {
		t = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		t = make(chan struct{}, 1)
	}
	g.parked = append(g.parked, t)
	g.mu.Unlock()
	g.waiters.Add(1)
	return t
}

// leave unregisters the waiter holding t and recycles t, draining a wake
// that raced the leave.
func (g *gate) leave(t chan struct{}) {
	g.waiters.Add(-1)
	g.mu.Lock()
	for i, p := range g.parked {
		if p == t {
			g.parked = append(g.parked[:i], g.parked[i+1:]...)
			break
		}
	}
	select {
	case <-t:
	default:
	}
	g.free = append(g.free, t)
	g.mu.Unlock()
}

// wake releases every currently registered waiter.
func (g *gate) wake() {
	if g.waiters.Load() == 0 {
		return
	}
	g.mu.Lock()
	for _, t := range g.parked {
		select {
		case t <- struct{}{}:
		default: // already posted: a token's one slot holds the wake
		}
	}
	g.parked = g.parked[:0]
	g.mu.Unlock()
}

// ringCounters aggregates mailbox-path events across a transport. All
// fields are atomics: producers on arbitrary goroutines bump them, and
// RingStats/dsmon collectors read them concurrently, so the counters are
// race-free by construction (the old Stats structs were goroutine-local
// and could not be scraped mid-run).
type ringCounters struct {
	ringPuts  atomic.Int64 // messages enqueued on the lock-free fast path
	spills    atomic.Int64 // messages diverted to the unbounded overflow list
	takes     atomic.Int64 // messages drained out of rings and overflow
	fullStall atomic.Int64 // producer blocks on a full ring (backpressure events)
	assists   atomic.Int64 // messages a blocked producer drained from its own inbox
	parks     atomic.Int64 // consumer parks (receiver found nothing and slept)
}

// RingStats is a point-in-time snapshot of a transport's mailbox-path
// counters. Safe to take from any goroutine at any time.
type RingStats struct {
	// RingPuts counts messages enqueued on the lock-free ring fast path;
	// Spills counts messages diverted to the unbounded overflow list (ring
	// full on a path that must not block, or an out-of-range sender rank).
	RingPuts, Spills int64
	// Takes counts messages drained toward delivery.
	Takes int64
	// FullStalls counts producer blocks on a full ring — the backpressure
	// events; Assists counts messages such blocked producers drained from
	// their own inboxes to keep symmetric exchanges deadlock-free.
	FullStalls, Assists int64
	// ConsumerParks counts receiver sleeps (nothing matching was staged).
	ConsumerParks int64
}

func (c *ringCounters) snapshot() RingStats {
	return RingStats{
		RingPuts:      c.ringPuts.Load(),
		Spills:        c.spills.Load(),
		Takes:         c.takes.Load(),
		FullStalls:    c.fullStall.Load(),
		Assists:       c.assists.Load(),
		ConsumerParks: c.parks.Load(),
	}
}

func (c *ringCounters) reset() {
	c.ringPuts.Store(0)
	c.spills.Store(0)
	c.takes.Store(0)
	c.fullStall.Store(0)
	c.assists.Store(0)
	c.parks.Store(0)
}

// ringBound maps a registry to the indirection cell its comm_ring_*
// collector reads. Gauges and the collector are registered once per
// registry; successive transports on the same monitor (monitors outlive
// machine runs) just swap the cell, so a stale transport can never
// overwrite a live one's numbers.
var ringBound sync.Map // *dsmon.Registry -> *atomic.Pointer[ringCounters]

// bindRingMetrics exports ctr as comm_ring_* gauges on the monitor's
// registry, refreshed by a registry collector at each gather — the same
// glue shape the machine uses for bufpool's process-global stats.
func bindRingMetrics(m *dsmon.Monitor, ctr *ringCounters) {
	reg := m.Registry()
	if reg == nil {
		return
	}
	cell, bound := ringBound.LoadOrStore(reg, new(atomic.Pointer[ringCounters]))
	p := cell.(*atomic.Pointer[ringCounters])
	p.Store(ctr)
	if bound {
		return
	}
	puts := reg.Gauge("comm_ring_puts_total", "messages enqueued on the lock-free mailbox ring fast path")
	spills := reg.Gauge("comm_ring_spills_total", "messages diverted to the unbounded mailbox overflow list")
	takes := reg.Gauge("comm_ring_takes_total", "messages drained out of mailbox rings and overflow")
	stalls := reg.Gauge("comm_ring_full_stalls_total", "producer blocks on a full mailbox ring (backpressure events)")
	assists := reg.Gauge("comm_ring_assists_total", "messages blocked producers drained from their own inboxes")
	parks := reg.Gauge("comm_ring_consumer_parks_total", "receiver sleeps on an empty mailbox")
	reg.AddCollector(func() {
		c := p.Load()
		if c == nil {
			return
		}
		st := c.snapshot()
		puts.Set(float64(st.RingPuts))
		spills.Set(float64(st.Spills))
		takes.Set(float64(st.Takes))
		stalls.Set(float64(st.FullStalls))
		assists.Set(float64(st.Assists))
		parks.Set(float64(st.ConsumerParks))
	})
}
