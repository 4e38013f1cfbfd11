package stream

import (
	"cmp"
	"container/heap"
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

// Want names one expected broadcast copy: source s's message on
// directed Hamiltonian cycle j.
type Want struct {
	Source  topology.Node
	Channel uint8
}

// pull is one planned repair action: send a NAK for Want to provider.
type pull struct {
	Want
	provider topology.Node
}

type pullState struct {
	w         Want
	providers []topology.Node
	idx       int // rotation position
	attempts  int
	nextAt    time.Time
	satisfied bool
	seq       int // insertion index: emission order and heap tie-break
	slot      int // index in planner.live, -1 once out of it
}

// planner tracks every copy of one epoch a node still expects and
// decides, given the current time, which NAKs to send to whom. Each
// want times its own retries from its own attempt count by the Retry
// profile's rule: after its k-th pull it waits retry.Delay(k−1), and
// half the wait its count gives after a MISS. The jitter comes from one
// random source per planner, seeded by the profile's Seed. Not safe for
// concurrent use; the node's event loop owns it.
//
// Wants that can still be pulled sit in a min-heap keyed by (nextAt,
// insertion index), so the event loop's per-iteration nextWake and due
// cost the due wants, not every want. A satisfied want is dropped
// lazily, when it reaches the top; one that exhausts its attempts
// leaves the heap and is counted, so terminal is O(1).
type planner struct {
	maxAttempts int
	retry       transport.BackoffConfig
	rng         *rand.Rand
	wants       map[Want]*pullState
	live        wantHeap
	scratch     []*pullState // due's
	pending     int
	exhausted   int // unsatisfied wants that burned maxAttempts
}

// newPlanner returns an empty planner that sends at most maxAttempts
// NAKs per missing copy, spaced by the retry profile.
func newPlanner(maxAttempts int, retry transport.BackoffConfig) *planner {
	return &planner{maxAttempts: maxAttempts, retry: retry, rng: retry.Rand(), wants: make(map[Want]*pullState)}
}

// wait is how long st waits for its next pull: the profile's delay for
// its attempt count, drawn afresh.
func (p *planner) wait(st *pullState) time.Duration {
	return p.retry.Delay(st.attempts-1, p.rng.Float64())
}

// expect registers a copy the node is owed. deadline is when the
// schedule's closed form (stage start + hops·per-hop latency + slack)
// says it should have arrived; the first pull fires then. providers is
// the rotation order, normally the cycle predecessor followed by the
// node's remaining graph neighbors.
func (p *planner) expect(w Want, deadline time.Time, providers []topology.Node) {
	if _, dup := p.wants[w]; dup {
		return
	}
	st := &pullState{w: w, providers: providers, nextAt: deadline, seq: len(p.wants)}
	p.wants[w] = st
	heap.Push(&p.live, st)
	p.pending++
}

// got marks a copy received. Reports whether it was still pending (the
// first copy; duplicates return false).
func (p *planner) got(w Want) bool {
	st, ok := p.wants[w]
	if !ok || st.satisfied {
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
func (p *planner) miss(w Want, now time.Time) {
	st, ok := p.wants[w]
	if !ok || st.satisfied || st.attempts >= p.maxAttempts {
		return
	}
	next := now.Add(p.wait(st) / 2)
	if next.Before(st.nextAt) {
		st.nextAt = next
		heap.Fix(&p.live, st.slot)
	}
}

// due returns the pulls whose time has come, in insertion order,
// advancing each want's rotation, attempt count, and next-retry time.
// peerDown (optional) lets the rotation skip providers whose circuit
// breakers are open; if every provider is down the want just waits
// out its backoff.
func (p *planner) due(now time.Time, peerDown func(topology.Node) bool) []pull {
	// Pop every due want before rescheduling any, so a retry that is
	// due again at once waits for the next call.
	p.scratch = p.scratch[:0]
	for len(p.live) > 0 && !now.Before(p.live[0].nextAt) {
		if st := heap.Pop(&p.live).(*pullState); !st.satisfied {
			p.scratch = append(p.scratch, st)
		}
	}
	slices.SortFunc(p.scratch, func(a, b *pullState) int { return cmp.Compare(a.seq, b.seq) })
	var out []pull
	for _, st := range p.scratch {
		provider, ok := p.pickProvider(st, peerDown)
		st.attempts++
		st.nextAt = now.Add(p.wait(st))
		if st.attempts < p.maxAttempts {
			heap.Push(&p.live, st)
		} else {
			p.exhausted++
		}
		if !ok {
			continue // all providers down; burn the attempt slot and wait
		}
		out = append(out, pull{Want: st.w, provider: provider})
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

// nextWake returns the earliest time any unsatisfied, unexhausted want
// becomes due. ok is false when nothing is left to do.
func (p *planner) nextWake() (at time.Time, ok bool) {
	for len(p.live) > 0 && p.live[0].satisfied {
		heap.Pop(&p.live)
	}
	if len(p.live) == 0 {
		return at, false
	}
	return p.live[0].nextAt, true
}

// done reports whether every expected copy has arrived.
func (p *planner) done() bool { return p.pending == 0 }

// terminal reports whether the planner has no live work left: every
// expected copy has either arrived or burned its full attempt budget.
// done distinguishes the happy case; terminal && !done means the round
// ends with copies missing. A late got on an exhausted want still
// counts it satisfied, so a terminal-failed round can be revived by an
// unsolicited copy (a rejoining node's late injection) as long as the
// caller keeps feeding the planner.
func (p *planner) terminal() bool {
	return p.pending == 0 || p.pending <= p.exhausted
}

// wantHeap implements container/heap over the planner's pullable
// wants, keeping each want's slot current for heap.Fix.
type wantHeap []*pullState

func (h wantHeap) Len() int { return len(h) }

func (h wantHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.nextAt.Before(b.nextAt) {
		return true
	}
	return !b.nextAt.Before(a.nextAt) && a.seq < b.seq
}

func (h wantHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}

func (h *wantHeap) Push(x any) {
	st := x.(*pullState)
	st.slot = len(*h)
	*h = append(*h, st)
}

func (h *wantHeap) Pop() any {
	old := *h
	st := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	st.slot = -1
	return st
}
