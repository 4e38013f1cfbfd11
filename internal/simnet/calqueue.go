package simnet

import (
	"math"
	"math/bits"
	"slices"
)

// The engine's event queue: a bucketed calendar queue keyed on discrete
// ticks, replacing the comparison-based 4-ary heap on the hot path.
//
// The paper's α-spaced, closed-form schedule (Theorems 3/4) makes event
// timestamps highly clustered: every packet of a stage injects at the
// same instant and then advances one hop per α, so at any moment the
// pending set collapses onto a handful of distinct ticks, each holding a
// burst of events. A calendar queue turns that structure into O(1)
// scheduling work per event — append into the tick's bucket on push,
// one shared sort per bucket on drain — where a heap pays O(log n)
// sifting per event with no credit for the clustering.
//
// Layout. A ring of span one-tick buckets covers the window
// [lo, lo+span); the bucket for tick t is buckets[t&mask]. An occupancy
// bitmap (one bit per slot) lets the scan for the next non-empty tick
// skip 64 slots per word. Events outside the ring window land in an
// overflow min-heap (the old 4-ary eventHeap) and migrate into the ring
// as lo advances past them — correctness never depends on the span,
// only the constant factor does. Drained bucket arrays are recycled
// through a free list instead of staying pinned to their slot: at
// Q14/Q16 scale a tick bucket holds the whole in-flight cohort
// (hundreds of thousands of events), and per-slot retention would
// multiply that by the slot count, while the free list keeps only as
// many burst-sized arrays as there are simultaneously occupied ticks.
//
// Entries. A ring bucket holds bare 8-byte keys: the tick is the slot's,
// and the key packs the rest (packetKey), so a push writes one word. Only
// the overflow and timer heaps store (t, key) pairs.
//
// Ordering. Within a bucket all events share one tick, so the total
// (t, key) order reduces to the pure event key; the drain sorts the
// bucket's keys once and the engine handles them as a flat slice. The one
// spawn that can land on the tick currently being drained — the blocked
// virtual-cut-through fallback, at μ=1, τ_S=0 — has, by construction,
// the immediate-successor key of the event that spawned it (same packet
// and hop, evCut→evSend, and no key exists between the two kinds), so
// routing it through the `same` slip and handling it right after its
// spawner reproduces the heap's order exactly.
//
// Controller timers wait in a heap of their own, keyed after every
// packet event of their tick and every earlier timer (timerKeyBit | set
// sequence): the drain pops a tick's timers after its packet events, in
// set order, timers set for the tick while it drains included. A packet
// a timer injects at the open tick (τ_S = 0) has a fresh spec index, so
// its key lies between the tick's packet keys and every timer key: the
// heap would pop it right after that timer, where the `same` slip does.
type calQueue struct {
	buckets [][]uint64 // ring: keys of the events at tick t in slot t&mask; nil when empty
	occ     []uint64   // occupancy bitmap over ring slots
	mask    Time       // span-1; span is a power of two
	lo      Time       // ring window start: every ring event has t in [lo, lo+span)
	ringN   int        // events currently in the ring
	over    eventHeap  // events outside the ring window
	free    [][]uint64 // drained bucket arrays awaiting reuse
	same    []uint64   // keys of respawns at the tick being drained (see push)
	sameN   int        // consumption cursor into same
	timers  eventHeap  // controller timers (see above)
	open    Time       // tick currently being drained; noTick otherwise
}

// noTick marks "no bucket open"; simulated times are non-negative, so it
// cannot collide with a real tick.
const noTick = Time(math.MinInt64)

// spanForParams sizes the ring to cover the common spawn offsets of one
// event: +α (cut-through chain), +μα+τ_S (buffered resend and
// store-and-forward hops), +D (queueing). Rarer, farther spawns — next
// stages, deep contention pile-ups, oversized Flits — ride the overflow
// heap; a miss costs a heap operation, never correctness.
func spanForParams(p Params) Time {
	want := 2 * (p.TauS + p.PacketTime() + p.D + p.Alpha)
	span := Time(64)
	for span < want && span < 8192 {
		span <<= 1
	}
	return span
}

// reset prepares the queue for a new run, retaining every backing array.
func (q *calQueue) reset(span Time) {
	if q.ringN > 0 {
		// A previous run aborted mid-drain (panic recovered upstream);
		// scrub the ring so stale events cannot leak into this run.
		for s := range q.buckets {
			if b := q.buckets[s]; len(b) > 0 {
				q.buckets[s] = b[:0]
			}
		}
	}
	if Time(len(q.buckets)) != span {
		q.buckets = make([][]uint64, span)
		q.occ = make([]uint64, span>>6)
	} else {
		clear(q.occ)
	}
	q.mask = span - 1
	q.lo = 0
	q.ringN = 0
	q.over.a = q.over.a[:0]
	q.same = q.same[:0]
	q.sameN = 0
	q.timers.a = q.timers.a[:0]
	q.open = noTick
}

// empty reports whether no events are pending (unconsumed same-tick
// respawns are the drain loop's to finish, not pending work).
func (q *calQueue) empty() bool {
	return q.ringN == 0 && len(q.over.a) == 0 && len(q.timers.a) == 0
}

// push enqueues a packet event. O(1) amortized: a bucket append plus an
// occupancy bit, except for events outside the ring window (overflow
// heap) and same-tick respawns (the `same` slip).
func (q *calQueue) push(ev event) {
	if ev.t == q.open {
		// Respawn at the tick being drained: its key is the immediate
		// successor of the spawning event's key (see the type comment),
		// so the drain loop consumes it next, before the rest of the
		// sorted bucket.
		q.same = append(q.same, ev.key)
		return
	}
	if q.ringN == 0 && len(q.over.a) == 0 {
		// Queue went empty: snap the window to the new frontier.
		q.lo = ev.t
	}
	if ev.t < q.lo || ev.t > q.lo+q.mask {
		q.over.push(ev)
		return
	}
	q.ringPush(ev)
}

// ringPush appends ev's key to its tick's bucket, which must lie inside
// the ring window.
func (q *calQueue) ringPush(ev event) {
	slot := ev.t & q.mask
	b := q.buckets[slot]
	if b == nil {
		if n := len(q.free); n > 0 {
			b, q.free = q.free[n-1], q.free[:n-1]
		}
	}
	q.buckets[slot] = append(b, ev.key)
	q.occ[slot>>6] |= 1 << uint(slot&63)
	q.ringN++
}

// nextTick returns the earliest tick holding a pending event, migrating
// overflow events that meanwhile fell inside the ring window. It only
// reads and reorganizes; takeTick performs the removal.
func (q *calQueue) nextTick() (Time, bool) {
	if q.ringN == 0 {
		if len(q.over.a) == 0 {
			if len(q.timers.a) == 0 {
				return 0, false
			}
			return q.timers.a[0].t, true
		}
		// Ring empty: re-base the window to the overflow frontier so the
		// migration below captures it.
		q.lo = q.over.a[0].t
	}
	hi := q.lo + q.mask + 1
	for len(q.over.a) > 0 {
		t := q.over.a[0].t
		if t < q.lo || t >= hi {
			// Overflow events below lo predate the window (skewed initial
			// injections pushed out of time order); they drain straight
			// from the heap via the min below. Events at or past hi wait
			// for the window to reach them.
			break
		}
		q.ringPush(q.over.pop())
	}
	t := Time(math.MaxInt64)
	if q.ringN > 0 {
		t = q.ringNext()
	}
	if len(q.over.a) > 0 && q.over.a[0].t < t {
		t = q.over.a[0].t
	}
	if len(q.timers.a) > 0 && q.timers.a[0].t < t {
		t = q.timers.a[0].t
	}
	return t, true
}

// ringNext scans the occupancy bitmap, starting at lo's slot and
// wrapping once around the ring, for the first occupied slot; because
// every ring event lies in [lo, lo+span), the wrap-aware distance from
// lo's slot recovers the tick unambiguously. Must only be called with
// ringN > 0.
func (q *calQueue) ringNext() Time {
	s0 := int(q.lo & q.mask)
	words := len(q.occ)
	if w := q.occ[s0>>6] >> uint(s0&63); w != 0 {
		return q.lo + Time(bits.TrailingZeros64(w))
	}
	for i := 1; i <= words; i++ {
		wi := (s0>>6 + i) % words
		if w := q.occ[wi]; w != 0 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			return q.lo + Time((slot-s0)&int(q.mask))
		}
	}
	// Unreachable: ringN > 0 guarantees an occupied slot.
	panic("simnet: calendar queue occupancy bitmap inconsistent with ring count")
}

// takeTick removes and returns the keys of every pending packet event at
// tick t, sorted — the caller's flat batch to drain in one tight loop.
// While the batch is being handled, pushes at tick t are routed to the
// same-tick slip (consume it after each handled event); when the batch
// and slip are done, hand the slice back through finishTick.
func (q *calQueue) takeTick(t Time) []uint64 {
	var b []uint64
	if t >= q.lo && t <= q.lo+q.mask {
		slot := t & q.mask
		if bb := q.buckets[slot]; len(bb) > 0 {
			b = bb
			q.buckets[slot] = nil
			q.occ[slot>>6] &^= 1 << uint(slot&63)
			q.ringN -= len(b)
		}
	}
	for len(q.over.a) > 0 && q.over.a[0].t == t {
		b = append(b, q.over.pop().key)
	}
	sortBucket(b)
	q.open = t
	return b
}

// finishTick closes the drain of tick t: the bucket array returns to
// the free list, the same-tick slip resets, and the window advances —
// every event at or before t has been handled, so lo can move past it,
// letting pushes near the new frontier use the ring instead of the
// overflow heap.
func (q *calQueue) finishTick(t Time, b []uint64) {
	q.open = noTick
	q.same = q.same[:0]
	q.sameN = 0
	if b != nil {
		q.free = append(q.free, b[:0])
	}
	if t+1 > q.lo {
		q.lo = t + 1
	}
}

// sortBucket orders a drained bucket's keys (all entries share one tick,
// so the (t, key) order reduces to the key). The common case is
// already sorted: a stage's packets advance in lockstep, so tick t's
// batch — drained in key order — pushes tick t+α's events in key order
// too. One linear scan certifies that before falling back to a real
// sort (mixed-stage ticks interleave sources and do need it).
func sortBucket(b []uint64) {
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			slices.Sort(b)
			return
		}
	}
}
