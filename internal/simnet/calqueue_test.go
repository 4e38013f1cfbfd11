package simnet

import (
	"math/rand"
	"testing"
)

// The calendar queue's contract is exactly the heap's: pop every pushed
// event in (t, key) order, including events pushed mid-drain. These
// tests run the two side by side on the same event sets — initial
// pushes in arbitrary order (with same-tick collisions, times far
// outside the ring window, and controller timer keys), plus spawns
// generated as a pure function of each popped event, so both sides make
// identical spawn decisions — and require identical pop sequences.
//
// Spawns mirror what the engine can push while it handles an event:
//
//   - an initial packet event may respawn at its own tick with the
//     immediate-successor key (the blocked cut-through fallback) and at
//     a later tick;
//   - any packet event may set a controller timer at its own tick or a
//     later one (OnDeliver → SetTimer, clamped to now);
//   - a timer may inject a packet at its own tick (τ_S = 0) under a
//     fresh key above every packet key of the run so far, and may set
//     further timers at its own tick or later (OnTimer → SetTimer).

// Key spaces: initial packet events get even keys below spawnedBase or
// evCut keys at the engine's capacity limits, from limitBase up (their
// same-tick respawns the odd immediate successors), spawned future
// packets even keys from spawnedBase, injected packets keys from
// injectedBase; timers are timerKeyBit | set sequence, like the engine's.
const (
	spawnedBase  = uint64(1) << 32
	injectedBase = uint64(1) << 48
	limitBase    = uint64(maxSpecs-1-300) << 32
)

// initialKey reports whether key belongs to an initial packet event.
func initialKey(key uint64) bool {
	return key < spawnedBase || (key >= limitBase && key&timerKeyBit == 0)
}

// spawner makes the spawn decisions for one drain side. Decisions are a
// pure function of (popped event, salt); the key counters and the spawn
// budget are side-local — if the pop orders agree, the generated keys
// agree too, and if they diverge the comparison fails anyway.
type spawner struct {
	salt                  uint64
	nextKey, nextInjected uint64
	nextTimer             uint64 // next timer set sequence
	budget                int    // timer and injection spawns left

	// What the calendar side exercised, for coverage assertions.
	openTimers, timerInjections int
}

func newSpawner(salt uint64, initialTimers uint64) *spawner {
	return &spawner{salt: salt, nextTimer: initialTimers, budget: 400}
}

func (sp *spawner) timer(t Time) event {
	ev := event{t: t, key: timerKeyBit | sp.nextTimer}
	sp.nextTimer++
	return ev
}

func (sp *spawner) future(t Time, h uint64) event {
	k := spawnedBase + sp.nextKey*2
	sp.nextKey++
	return event{t: t + Time(1+(h>>16)%3000), key: k}
}

// spawn returns the events handling ev pushes; a nil spawner pushes
// nothing.
func (sp *spawner) spawn(ev event) []event {
	if sp == nil {
		return nil
	}
	h := splitmix64(uint64(ev.t)*1000003 ^ ev.key ^ sp.salt)
	var out []event
	if ev.key&timerKeyBit != 0 {
		if sp.budget <= 0 {
			return nil
		}
		sp.budget--
		if h&3 == 0 {
			// Inject one or two packets starting at this very tick.
			for n := 1 + int(h>>40&1); n > 0; n-- {
				out = append(out, event{t: ev.t, key: injectedBase + sp.nextInjected})
				sp.nextInjected++
			}
		}
		if h&0x30 == 0 {
			out = append(out, sp.timer(ev.t)) // a past deadline, clamped to now
		}
		if h&0xc0 == 0 {
			out = append(out, sp.timer(ev.t+Time(1+(h>>20)%500)))
		}
		return out
	}
	if ev.key&1 == 0 && initialKey(ev.key) && h&7 == 0 {
		// Same-tick respawn with the immediate-successor key — the
		// shape of the engine's blocked-cut-through fallback.
		out = append(out, event{t: ev.t, key: ev.key + 1})
	}
	if initialKey(ev.key) && h&0x300 == 0 {
		// Future respawn, up to thousands of ticks ahead: crosses
		// window boundaries and, for small spans, lands in the
		// overflow heap and migrates back as lo advances.
		out = append(out, sp.future(ev.t, h))
	}
	if sp.budget > 0 && h&0x1c00 == 0 {
		sp.budget--
		out = append(out, sp.timer(ev.t)) // OnDeliver sets a timer for now
	}
	if sp.budget > 0 && h&0xe000 == 0 {
		sp.budget--
		out = append(out, sp.timer(ev.t+Time(1+(h>>24)%700)))
	}
	return out
}

// calPush enqueues ev the way the engine does: timers (runState.pushTimer)
// into the timer heap, packet events through push.
func calPush(q *calQueue, ev event) {
	if ev.key&timerKeyBit != 0 {
		q.timers.push(ev)
		return
	}
	q.push(ev)
}

// calDrainAll drains q to empty through the batched tick protocol,
// feeding each popped event to spawn and pushing what it returns — the
// same shape as runState.drain: the tick's packet batch, each
// event followed by its same-tick slip, then the tick's timers, each
// followed by the packets it injected at the tick.
func calDrainAll(q *calQueue, sp *spawner) []event {
	var out []event
	pop := func(ev event) {
		out = append(out, ev)
		timer := ev.key&timerKeyBit != 0
		for _, s := range sp.spawn(ev) {
			if s.t == ev.t {
				switch {
				case s.key&timerKeyBit != 0:
					sp.openTimers++
				case timer:
					sp.timerInjections++
				}
			}
			calPush(q, s)
		}
	}
	slip := func(tick Time) {
		for q.sameN < len(q.same) {
			q.sameN++
			pop(event{t: tick, key: q.same[q.sameN-1]})
		}
	}
	for {
		tick, ok := q.nextTick()
		if !ok {
			break
		}
		b := q.takeTick(tick)
		for _, key := range b {
			if key&timerKeyBit != 0 {
				panic("calendar batch holds a timer")
			}
			pop(event{t: tick, key: key})
			slip(tick)
		}
		for len(q.timers.a) > 0 && q.timers.a[0].t == tick {
			pop(q.timers.pop())
			slip(tick)
		}
		q.finishTick(tick, b)
	}
	return out
}

// heapDrainAll is the reference: a plain pop loop over the 4-ary heap.
func heapDrainAll(h *eventHeap, sp *spawner) []event {
	var out []event
	for len(h.a) > 0 {
		ev := h.pop()
		out = append(out, ev)
		for _, s := range sp.spawn(ev) {
			h.push(s)
		}
	}
	return out
}

// diffCompare pushes the given initial events into both queues, drains
// both with identically-salted spawners, and requires identical (t,
// key) sequences. It returns the calendar side's spawner so callers can
// check what the run exercised.
func diffCompare(t *testing.T, span Time, initial []event, salt uint64) *spawner {
	t.Helper()
	var q calQueue
	q.reset(span)
	var h eventHeap
	timers := uint64(0)
	for _, ev := range initial {
		calPush(&q, ev)
		h.push(ev)
		if ev.key&timerKeyBit != 0 {
			timers++
		}
	}
	calSp, heapSp := newSpawner(salt, timers), newSpawner(salt, timers)
	got := calDrainAll(&q, calSp)
	want := heapDrainAll(&h, heapSp)
	if len(got) != len(want) {
		t.Fatalf("calendar popped %d events, heap %d", len(got), len(want))
	}
	for i := range got {
		if got[i].t != want[i].t || got[i].key != want[i].key {
			t.Fatalf("pop %d: calendar (t=%d key=%#x), heap (t=%d key=%#x)",
				i, got[i].t, got[i].key, want[i].t, want[i].key)
		}
	}
	if !q.empty() || q.sameN != len(q.same) {
		t.Fatalf("calendar queue not empty after full drain: ring %d, overflow %d, timers %d, same %d/%d",
			q.ringN, len(q.over.a), len(q.timers.a), q.sameN, len(q.same))
	}
	return calSp
}

// genInitial builds an initial event set from a deterministic byte
// stream: times cluster on few ticks (collisions), spread over ranges
// far beyond any span (overflow), and arrive in arbitrary order
// (below-lo pushes after the window snapped to an early frontier); one
// in four is a controller timer, numbered in push order like the
// engine's set sequence, and some packet events carry keys at the
// engine's packet and hop capacity limits.
func genInitial(data []byte) []event {
	n, timers := 0, uint64(0)
	var evs []event
	for i := 0; i+2 < len(data) && n < 300; i += 3 {
		// Two time regimes from the low bit: dense (collisions on a few
		// ticks) and sparse (tens of thousands of ticks apart).
		tRaw := Time(data[i])<<8 | Time(data[i+1])
		var tt Time
		if data[i+2]&1 == 0 {
			tt = tRaw % 40
		} else {
			tt = tRaw * 7
		}
		switch {
		case data[i+2]&6 == 6:
			evs = append(evs, event{t: tt, key: timerKeyBit | timers})
			timers++
		case data[i+2]&8 != 0:
			hop := maxRouteLen - 1 - int32(data[i+2]>>4&3)
			evs = append(evs, event{t: tt, key: packetKey(maxSpecs-1-int32(n), hop, evCut)})
		default:
			evs = append(evs, event{t: tt, key: uint64(n) * 2})
		}
		n++
	}
	return evs
}

func FuzzCalendarQueue(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(1), false)
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2}, uint64(42), true)
	f.Add([]byte{255, 255, 1, 0, 3, 0, 200, 100, 50, 9, 9, 9}, uint64(7), false)
	f.Add([]byte{0, 5, 6, 0, 5, 0, 0, 5, 7, 0, 5, 2}, uint64(3), true)
	f.Fuzz(func(t *testing.T, data []byte, salt uint64, small bool) {
		span := Time(512)
		if small {
			// A 64-slot ring forces heavy overflow traffic and repeated
			// migration as lo advances.
			span = 64
		}
		evs := genInitial(data)
		if len(evs) == 0 {
			return
		}
		diffCompare(t, span, evs, salt)
	})
}

// randomEvents draws n initial events: dense, medium and far-flung
// times, and, when timers is set, one controller timer in five.
func randomEvents(rng *rand.Rand, n int, timers bool) []event {
	evs := make([]event, n)
	seq := uint64(0)
	for i := range evs {
		var tt Time
		switch rng.Intn(3) {
		case 0:
			tt = Time(rng.Intn(25)) // dense: many same-tick collisions
		case 1:
			tt = Time(rng.Intn(5000))
		default:
			tt = Time(rng.Intn(200000)) // far beyond any ring span
		}
		if timers && rng.Intn(5) == 0 {
			evs[i] = event{t: tt, key: timerKeyBit | seq}
			seq++
			continue
		}
		evs[i] = event{t: tt, key: uint64(i) * 2}
	}
	return evs
}

// TestPacketKeyDecode pins the key codec the engine trusts: handle
// decodes the packet, hop and kind from the bare key, so every
// combination at the capacity limits must round-trip, keys must order
// by (packet, hop, kind), and no timer key may decode to a packet index
// the engine could hold.
func TestPacketKeyDecode(t *testing.T) {
	var prev uint64
	for i, pkt := range []int32{0, 1, maxSpecs - 1} {
		for j, hop := range []int32{0, 1, maxRouteLen - 1} {
			for k, kind := range []evKind{evCut, evSend} {
				key := packetKey(pkt, hop, kind)
				if key&timerKeyBit != 0 {
					t.Fatalf("packetKey(%d, %d, %d) = %#x sets the timer bit", pkt, hop, kind, key)
				}
				if p, h, d := decodeKey(key); p != pkt || h != hop || d != kind {
					t.Fatalf("decodeKey(packetKey(%d, %d, %d)) = (%d, %d, %d)", pkt, hop, kind, p, h, d)
				}
				if i+j+k > 0 && key <= prev {
					t.Fatalf("packetKey(%d, %d, %d) = %#x does not follow %#x", pkt, hop, kind, key, prev)
				}
				prev = key
			}
		}
	}
	for _, seq := range []uint64{0, 1, 2, 3, 1 << 32, timerKeyBit - 1} {
		if pkt, _, _ := decodeKey(timerKeyBit | seq); pkt >= 0 {
			t.Fatalf("timer key with sequence %d decodes to packet %d", seq, pkt)
		}
	}
}

// TestCalQueueDifferentialRandom is the deterministic property-test
// cousin of FuzzCalendarQueue: many seeded random event sets, both span
// sizes, heavy same-tick collision rates.
func TestCalQueueDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 200; round++ {
		span := Time(64)
		if round%2 == 0 {
			span = 1024
		}
		diffCompare(t, span, randomEvents(rng, 1+rng.Intn(200), false), rng.Uint64())
	}
}

// TestCalQueueControllerOrder pins controller runs on the calendar
// path: event sets with timer keys, drained with timers set for the
// open tick (from packets and from timers) and packets injected at the
// open tick from timers, must pop in exactly the heap's order. The
// first case is hand-built: a packet and two timers share tick 10,
// and a packet at tick 5 precedes them.
func TestCalQueueControllerOrder(t *testing.T) {
	hand := []event{
		{t: 10, key: packetKey(0, 0, evSend)},
		{t: 10, key: timerKeyBit | 0},
		{t: 10, key: timerKeyBit | 1},
		{t: 5, key: packetKey(1, 0, evSend)},
		{t: 10, key: packetKey(1, 1, evCut)},
	}
	for salt := uint64(0); salt < 64; salt++ {
		diffCompare(t, 64, hand, salt)
	}
	rng := rand.New(rand.NewSource(13))
	var openTimers, injections int
	for round := 0; round < 300; round++ {
		span := Time(64)
		if round%2 == 0 {
			span = 1024
		}
		sp := diffCompare(t, span, randomEvents(rng, 1+rng.Intn(200), true), rng.Uint64())
		openTimers += sp.openTimers
		injections += sp.timerInjections
	}
	if openTimers == 0 || injections == 0 {
		t.Fatalf("rounds exercised %d open-tick timers and %d open-tick injections, want both > 0",
			openTimers, injections)
	}
}

// TestCalQueueReuse pins scratch-style reuse: a queue drained by one
// run (including an aborted, partially-drained state) serves the next
// run with a different span without leaking stale events.
func TestCalQueueReuse(t *testing.T) {
	var q calQueue
	q.reset(64)
	for i := 0; i < 50; i++ {
		q.push(event{t: Time(i * 3), key: uint64(i) * 2})
	}
	// Partial drain: take one tick and abandon the rest mid-run.
	tick, ok := q.nextTick()
	if !ok {
		t.Fatal("expected pending events")
	}
	b := q.takeTick(tick)
	q.finishTick(tick, b)

	q.reset(128)
	if !q.empty() {
		t.Fatalf("reset queue not empty: ring %d, overflow %d", q.ringN, len(q.over.a))
	}
	q.push(event{t: 7, key: 2})
	q.push(event{t: 7, key: 0})
	got := calDrainAll(&q, nil)
	if len(got) != 2 || got[0].key != 0 || got[1].key != 2 {
		t.Fatalf("after reuse popped %v", got)
	}
}

// TestSortBucketSortedFastPath pins the lockstep fast path: an already
// key-sorted bucket must come back untouched, an unsorted one sorted.
func TestSortBucketSortedFastPath(t *testing.T) {
	sorted := []uint64{1, 2, 5, 9}
	sortBucket(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatalf("sorted bucket reordered at %d", i)
		}
	}
	unsorted := []uint64{9, 2, 5, 1}
	sortBucket(unsorted)
	for i, want := range []uint64{1, 2, 5, 9} {
		if unsorted[i] != want {
			t.Fatalf("sortBucket: pos %d key %d, want %d", i, unsorted[i], want)
		}
	}
}

// TestSpanForParams pins the sizing rule: a power of two covering twice
// the common spawn offsets, clamped to [64, 8192].
func TestSpanForParams(t *testing.T) {
	cases := []struct {
		p    Params
		want Time
	}{
		{Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}, 512}, // default: 2*(100+40+37+20)=394 → 512
		{Params{TauS: 0, Alpha: 1, Mu: 1, D: 0}, 64},      // tiny: clamps at 64
		{Params{TauS: 100000, Alpha: 20, Mu: 2, D: 37}, 8192},
	}
	for _, tc := range cases {
		if got := spanForParams(tc.p); got != tc.want {
			t.Errorf("spanForParams(%+v) = %d, want %d", tc.p, got, tc.want)
		}
		got := spanForParams(tc.p)
		if got&(got-1) != 0 {
			t.Errorf("span %d not a power of two", got)
		}
	}
}
