package repair

import (
	"cmp"
	"container/heap"
	"slices"
	"time"

	"ihc/internal/topology"
)

// This file is the wall-clock counterpart of the simulated-time Manager
// above: the same closed-form-deadline → NAK → bounded-backoff-retry
// design, recast as a pure state machine a real-transport node drives
// off actual timers. It owns no clocks and no sockets — the caller
// feeds it the current time and carries out the pulls it emits — so the
// retry policy is unit-testable with a manual clock and shared between
// the in-process loopback cluster and the multi-process TCP daemon.
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

// Pull is one planned repair action: send a NAK for Want to Provider.
type Pull struct {
	Want
	Provider topology.Node
	Attempt  int // 1-based attempt number this pull represents
}

// PullConfig shapes the planner.
type PullConfig struct {
	// MaxAttempts bounds the NAKs sent per missing copy; afterwards
	// the want is reported by Exhausted instead of retried forever.
	// Default 12.
	MaxAttempts int
	// Delay returns the wait before attempt k+1 (k = attempts made so
	// far, so Delay(1) follows the first NAK). Callers pass a jittered
	// exponential backoff; required.
	Delay func(attempt int) time.Duration
}

type pullState struct {
	w         Want
	providers []topology.Node
	idx       int // rotation position
	attempts  int
	nextAt    time.Time
	satisfied bool
	seq       int // insertion index: emission order and heap tie-break
	slot      int // index in Planner.live, -1 once out of it
}

// Planner tracks every copy a node still expects and decides, given the
// current time, which NAKs to send to whom. Not safe for concurrent
// use; the node's event loop owns it.
//
// Wants that can still be pulled sit in a min-heap keyed by (nextAt,
// insertion index), so the event loop's per-iteration NextWake and Due
// cost the due wants, not every want. A satisfied want is dropped
// lazily, when it reaches the top; one that exhausts its attempts
// leaves the heap and is counted, so Terminal is O(1).
type Planner struct {
	cfg       PullConfig
	wants     map[Want]*pullState
	order     []*pullState // insertion order, for Exhausted
	live      wantHeap
	due       []*pullState // Due's scratch
	pending   int
	exhausted int // unsatisfied wants that burned MaxAttempts
}

// NewPlanner returns an empty planner.
func NewPlanner(cfg PullConfig) *Planner {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 12
	}
	if cfg.Delay == nil {
		panic("repair: PullConfig.Delay is required")
	}
	return &Planner{cfg: cfg, wants: make(map[Want]*pullState)}
}

// Expect registers a copy the node is owed. deadline is when the
// schedule's closed form (stage start + hops·per-hop latency + slack)
// says it should have arrived; the first pull fires then. providers is
// the rotation order, normally the cycle predecessor followed by the
// node's remaining graph neighbors.
func (p *Planner) Expect(w Want, deadline time.Time, providers []topology.Node) {
	if _, dup := p.wants[w]; dup {
		return
	}
	st := &pullState{w: w, providers: providers, nextAt: deadline, seq: len(p.order)}
	p.wants[w] = st
	p.order = append(p.order, st)
	heap.Push(&p.live, st)
	p.pending++
}

// Got marks a copy received. Reports whether it was still pending (the
// first copy; duplicates return false).
func (p *Planner) Got(w Want) bool {
	st, ok := p.wants[w]
	if !ok || st.satisfied {
		return false
	}
	st.satisfied = true
	p.pending--
	if st.attempts >= p.cfg.MaxAttempts {
		p.exhausted--
	}
	return true
}

// Miss records a provider answering "I don't hold that copy either":
// rotation has already advanced past it, so the only adjustment is to
// retry sooner than the full deadline-miss backoff would.
func (p *Planner) Miss(w Want, now time.Time) {
	st, ok := p.wants[w]
	if !ok || st.satisfied || st.attempts >= p.cfg.MaxAttempts {
		return
	}
	next := now.Add(p.cfg.Delay(st.attempts) / 2)
	if next.Before(st.nextAt) {
		st.nextAt = next
		heap.Fix(&p.live, st.slot)
	}
}

// Due returns the pulls whose time has come, in insertion order,
// advancing each want's rotation, attempt count, and next-retry time.
// peerDown (optional) lets the rotation skip providers whose circuit
// breakers are open; if every provider is down the want just waits
// out its backoff.
func (p *Planner) Due(now time.Time, peerDown func(topology.Node) bool) []Pull {
	// Pop every due want before rescheduling any, so a retry that is
	// due again at once waits for the next call.
	p.due = p.due[:0]
	for len(p.live) > 0 && !now.Before(p.live[0].nextAt) {
		if st := heap.Pop(&p.live).(*pullState); !st.satisfied {
			p.due = append(p.due, st)
		}
	}
	slices.SortFunc(p.due, func(a, b *pullState) int { return cmp.Compare(a.seq, b.seq) })
	var out []Pull
	for _, st := range p.due {
		provider, ok := p.pickProvider(st, peerDown)
		st.attempts++
		st.nextAt = now.Add(p.cfg.Delay(st.attempts))
		if st.attempts < p.cfg.MaxAttempts {
			heap.Push(&p.live, st)
		} else {
			p.exhausted++
		}
		if !ok {
			continue // all providers down; burn the attempt slot and wait
		}
		out = append(out, Pull{Want: st.w, Provider: provider, Attempt: st.attempts})
	}
	return out
}

func (p *Planner) pickProvider(st *pullState, peerDown func(topology.Node) bool) (topology.Node, bool) {
	for i := 0; i < len(st.providers); i++ {
		cand := st.providers[st.idx%len(st.providers)]
		st.idx++
		if peerDown == nil || !peerDown(cand) {
			return cand, true
		}
	}
	return 0, false
}

// NextWake returns the earliest time any unsatisfied, unexhausted want
// becomes due. ok is false when nothing is left to do.
func (p *Planner) NextWake() (at time.Time, ok bool) {
	for len(p.live) > 0 && p.live[0].satisfied {
		heap.Pop(&p.live)
	}
	if len(p.live) == 0 {
		return at, false
	}
	return p.live[0].nextAt, true
}

// Pending returns how many expected copies are still missing.
func (p *Planner) Pending() int { return p.pending }

// Done reports whether every expected copy has arrived.
func (p *Planner) Done() bool { return p.pending == 0 }

// Terminal reports whether the planner has no live work left: every
// expected copy has either arrived or burned its full attempt budget.
// Done() distinguishes the happy case; Terminal && !Done means the
// round ends in an Exhausted verdict. A late Got on an exhausted want
// still counts it satisfied, so a terminal-failed round can be revived
// by an unsolicited copy (a rejoining node's late injection) as long
// as the caller keeps feeding the planner.
func (p *Planner) Terminal() bool {
	return p.pending == 0 || p.pending <= p.exhausted
}

// Exhausted lists wants that burned MaxAttempts without a copy
// arriving — the node's final verdict will fail on these.
func (p *Planner) Exhausted() []Want {
	var out []Want
	for _, st := range p.order {
		if !st.satisfied && st.attempts >= p.cfg.MaxAttempts {
			out = append(out, st.w)
		}
	}
	return out
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
