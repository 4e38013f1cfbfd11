package stream

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"ihc/internal/topology"
	"ihc/internal/transport"
)

// This file is the node's pull planner, the wall-clock counterpart of
// the simulated repair.Manager: the same closed-form-deadline → NAK →
// bounded-backoff-retry design, recast as a pure state machine the
// node's event loop drives off actual timers. It owns no clocks and no
// sockets — the node feeds it the current time and carries out the
// pulls it emits — so the retry policy is unit-testable with a
// synthetic clock.
//
// The protocol it plans is pull-based anti-entropy rather than the
// Manager's source-side retransmission: on a real mesh the failed
// element is unknown (crashed process? cut link? slow host?), so the
// node that misses a deadline asks its own graph neighbors for the copy
// — the cycle-j predecessor first (the node that would have relayed it
// to us), then the remaining neighbors in rotation — backing off with
// jitter between rounds and skipping peers whose circuit breakers are
// open. Every node stores each copy it accepts (and its own at
// injection), so any neighbor that already holds the copy can serve it;
// while the surviving subgraph stays connected, rotation finds a holder
// and the pull converges.

// pull is one planned repair action: send provider a NAK for the copy
// in the given epoch store slot.
type pull struct {
	slot     int
	provider topology.Node
}

// pullState is one copy's pull state, held by value in the planner's
// slot-indexed slice.
type pullState struct {
	providers []topology.Node
	nextAt    time.Time
	idx       int // rotation position
	attempts  int
	seq       int // insertion index: emission order and heap tie-break
	expected  bool
	satisfied bool
}

// planner tracks every copy of one epoch a node still expects, keyed by
// the copy's epoch store slot (source·γ + channel), and decides, given
// the current time, which NAKs to send to whom. Each copy times its own
// retries from its own attempt count by the Retry profile's rule: after
// its k-th pull it waits retry.Delay(k−1), and half the wait its count
// gives after a MISS. The jitter comes from one random source per
// planner, seeded by the profile's Seed. Not safe for concurrent use;
// the node's event loop owns it.
//
// Copies that can still be pulled sit in a min-heap of slots keyed by
// (nextAt, insertion index), so the event loop's per-iteration nextWake
// and due cost the due copies, not every copy. A satisfied copy is
// dropped lazily, when it reaches the top; one that exhausts its
// attempts leaves the heap and is counted, so terminal is O(1).
type planner struct {
	maxAttempts int
	retry       transport.BackoffConfig
	rng         *rand.Rand
	slots       []pullState
	live        []int // heap of pullable slots
	scratch     []int // due's
	expected    int
	pending     int
	exhausted   int // unsatisfied copies that burned maxAttempts
}

// newPlanner returns a planner over slots store slots, none expected
// yet, that sends at most maxAttempts NAKs per missing copy, spaced by
// the retry profile.
func newPlanner(slots, maxAttempts int, retry transport.BackoffConfig) *planner {
	return &planner{
		maxAttempts: maxAttempts,
		retry:       retry,
		rng:         retry.Rand(),
		slots:       make([]pullState, slots),
		live:        make([]int, 0, slots),
		scratch:     make([]int, 0, slots),
	}
}

// wait is how long st waits for its next pull: the profile's delay for
// its attempt count, drawn afresh.
func (p *planner) wait(st *pullState) time.Duration {
	return p.retry.Delay(st.attempts-1, p.rng.Float64())
}

// expect registers the copy in slot as one the node is owed. deadline
// is when the schedule's closed form (stage start + hops·per-hop
// latency + slack) says it should have arrived; the first pull fires
// then. providers is the rotation order, normally the cycle predecessor
// followed by the node's remaining graph neighbors.
func (p *planner) expect(slot int, deadline time.Time, providers []topology.Node) {
	st := &p.slots[slot]
	if st.expected {
		return
	}
	*st = pullState{providers: providers, nextAt: deadline, seq: p.expected, expected: true}
	p.expected++
	p.pending++
	p.push(slot)
}

// got marks the copy in slot received. Reports whether it was still
// pending (the first copy; duplicates return false).
func (p *planner) got(slot int) bool {
	st := &p.slots[slot]
	if !st.expected || st.satisfied {
		return false
	}
	st.satisfied = true
	p.pending--
	if st.attempts >= p.maxAttempts {
		p.exhausted--
	}
	return true
}

// miss records a provider answering "I don't hold that copy either":
// rotation has already advanced past it, so the only adjustment is to
// retry after half the wait a deadline miss would.
func (p *planner) miss(slot int, now time.Time) {
	st := &p.slots[slot]
	if !st.expected || st.satisfied || st.attempts >= p.maxAttempts {
		return
	}
	next := now.Add(p.wait(st) / 2)
	if next.Before(st.nextAt) {
		st.nextAt = next
		p.up(slices.Index(p.live, slot))
	}
}

// due returns the pulls whose time has come, in insertion order,
// advancing each copy's rotation, attempt count, and next-retry time.
// peerDown (optional) lets the rotation skip providers whose circuit
// breakers are open; if every provider is down the copy just waits out
// its backoff.
func (p *planner) due(now time.Time, peerDown func(topology.Node) bool) []pull {
	// Pop every due copy before rescheduling any, so a retry that is due
	// again at once waits for the next call.
	p.scratch = p.scratch[:0]
	for len(p.live) > 0 && !now.Before(p.slots[p.live[0]].nextAt) {
		if s := p.pop(); !p.slots[s].satisfied {
			p.scratch = append(p.scratch, s)
		}
	}
	slices.SortFunc(p.scratch, func(a, b int) int { return cmp.Compare(p.slots[a].seq, p.slots[b].seq) })
	out := make([]pull, 0, len(p.scratch))
	for _, s := range p.scratch {
		st := &p.slots[s]
		provider, ok := p.pickProvider(st, peerDown)
		st.attempts++
		st.nextAt = now.Add(p.wait(st))
		if st.attempts < p.maxAttempts {
			p.push(s)
		} else {
			p.exhausted++
		}
		if !ok {
			continue // all providers down; burn the attempt slot and wait
		}
		out = append(out, pull{slot: s, provider: provider})
	}
	return out
}

func (p *planner) pickProvider(st *pullState, peerDown func(topology.Node) bool) (topology.Node, bool) {
	for i := 0; i < len(st.providers); i++ {
		cand := st.providers[st.idx%len(st.providers)]
		st.idx++
		if peerDown == nil || !peerDown(cand) {
			return cand, true
		}
	}
	return 0, false
}

// nextWake returns the earliest time any unsatisfied, unexhausted copy
// becomes due. ok is false when nothing is left to do.
func (p *planner) nextWake() (at time.Time, ok bool) {
	for len(p.live) > 0 && p.slots[p.live[0]].satisfied {
		p.pop()
	}
	if len(p.live) == 0 {
		return at, false
	}
	return p.slots[p.live[0]].nextAt, true
}

// done reports whether every expected copy has arrived.
func (p *planner) done() bool { return p.pending == 0 }

// terminal reports whether the planner has no live work left: every
// expected copy has either arrived or burned its full attempt budget.
// done distinguishes the happy case; terminal && !done means the round
// ends with copies missing. A late got on an exhausted copy still
// counts it satisfied, so a terminal-failed round can be revived by an
// unsolicited copy (a rejoining node's late injection) as long as the
// caller keeps feeding the planner.
func (p *planner) terminal() bool {
	return p.pending == 0 || p.pending <= p.exhausted
}

// The heap of pullable slots, hand-written because container/heap's
// Push and Pop box each slot (an allocation above 255). A slot is in it
// at most once: from expect until due exhausts it or it tops satisfied.

// before orders the heap: earlier nextAt first, then insertion order.
func (p *planner) before(a, b int) bool {
	x, y := &p.slots[a], &p.slots[b]
	return x.nextAt.Before(y.nextAt) || x.nextAt.Equal(y.nextAt) && x.seq < y.seq
}

func (p *planner) push(slot int) {
	p.live = append(p.live, slot)
	p.up(len(p.live) - 1)
}

func (p *planner) pop() int {
	h := p.live
	top, last := h[0], len(h)-1
	h[0] = h[last]
	p.live = h[:last]
	p.down(0)
	return top
}

func (p *planner) up(i int) {
	h := p.live
	for i > 0 {
		parent := (i - 1) / 2
		if !p.before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (p *planner) down(i int) {
	h := p.live
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && p.before(h[c+1], h[c]) {
			c++
		}
		if !p.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
