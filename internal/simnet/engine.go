package simnet

import (
	"fmt"
	"slices"

	"ihc/internal/topology"
)

// The event engine. Each packet is driven by two kinds of events:
//
//   - evCut: the packet's header has reached an intermediate node and,
//     after the FIFO transit time α, requests the outgoing transmitter
//     hoping to cut through;
//   - evSend: the packet is fully stored at a node (or is being injected
//     by its source) and, after the startup time τ_S, requests the
//     transmitter for a store-and-forward style send.
//
// A request that finds the transmitter free acquires it immediately; a
// blocked cut-through falls back to reception + evSend; a blocked send
// reserves the next free slot and pays the queueing delay D. Wormhole
// packets stall in the network instead of buffering. Events are processed
// in (time, key) order — see packetKey — so runs are fully deterministic.
//
// The hot path is flat and index-addressed: before the event loop starts,
// every route is compiled into a []int32 of arc indices (validating
// adjacency once), so handle() reaches its link by slice indexing into
// the network's per-arc freeAt — no map probes, no interface boxing,
// and, with a reused Scratch, no allocation per event.

type evKind uint8

const (
	evCut evKind = iota
	evSend
)

// Capacity limits of the flat-array layout. Packet indices are int32 and
// an event's ordering key reserves 31 bits for the packet and 30 for the
// hop, so both are hard caps the run validates up front — at the paper's
// Q16 headline scale (524288 packets of 65535 hops per stage) they leave
// three orders of magnitude of headroom, but a silent wrap would corrupt
// the event order, so exceeding them is a loud error.
const (
	maxSpecs    = 1<<31 - 1
	maxRouteLen = 1 << 30
)

// packetKey is the deterministic tiebreak for packet events at equal
// simulated time: spec index, then hop, then kind (evCut orders before
// evSend). Together with the time it forms a total order over all
// possible packet events that is a pure function of the event *set* —
// not of heap push order — which is what lets a component-parallel run
// (components.go) drain arc-disjoint groups of packets on separate
// workers and still give every link the sequential event order. Two
// properties make the order well defined and causal:
//
//   - distinct events have distinct keys: each (pkt, hop) produces at
//     most one evCut and at most one evSend per run;
//   - every event spawned while handling an event at (t, k) lands at a
//     strictly later (time, key): next-hop and dependency-release events
//     advance time by at least α, and the blocked-cut-through fallback
//     (the only spawn that can share its spawner's time, at μ=1, τ_S=0)
//     keeps the same pkt and hop but moves from evCut to evSend.
func packetKey(pkt, hop int32, kind evKind) uint64 {
	return uint64(uint32(pkt))<<32 | uint64(uint32(hop))<<2 | uint64(kind)
}

// decodeKey inverts packetKey: a key is a packet event's whole payload,
// which is why the calendar queue stores keys alone.
func decodeKey(key uint64) (pkt, hop int32, kind evKind) {
	return int32(key >> 32), int32(uint32(key) >> 2), evKind(key & 3)
}

// timerKeyBit marks controller timer events, which carry no packet; the
// rest of a timer key is its set sequence, which indexes the run's token
// table. Bit 63 is never set by packetKey (31+30+2 = 63 bits), so all
// timers at a tick order after that tick's packet events — a deadline
// timer can never preempt a delivery landing on the deadline itself —
// and among themselves by their monotonic set sequence.
const timerKeyBit = uint64(1) << 63

// event is a pending event outside the calendar ring (overflow and timer
// heaps): its time and its key.
type event struct {
	t   Time
	key uint64 // deterministic tiebreak at equal t (packetKey / timer key)
}

// before reports whether a orders strictly before b: primary key is
// simulated time, tiebroken by the deterministic event key. The order is
// total (keys are unique), so every conforming priority queue pops the
// exact same event sequence — the determinism the regression oracle
// relies on.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.key < b.key
}

// eventHeap is a monomorphic 4-ary min-heap over a reusable backing
// array. Compared to container/heap it avoids the interface{} boxing
// (one heap allocation per pushed event) and the dynamic Less/Swap
// dispatch; the 4-ary layout halves the tree depth, so a pop touches
// fewer cache lines at the cost of cheap in-line sibling comparisons.
type eventHeap struct {
	a []event
}

func (h *eventHeap) push(e event) {
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	h.a = a
}

func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	h.a = a[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if a[k].before(&a[m]) {
				m = k
			}
		}
		if !a[m].before(&last) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = last
	return top
}

// Options controls what a Run records beyond its counters. Every record
// goes into a sink the caller owns — Copies, Log, Ledger, Observe — and
// the engine only adds to it, so chained runs (a core run's stages, a
// serialized ATA's broadcasts) share one sink and merge counters only.
type Options struct {
	// Copies, when non-nil, accumulates every delivery into the
	// (receiver, source) copy-count matrix. Costs O(N^2) memory; leave
	// nil for very large networks (Ledger is the O(N) check). Extra
	// workers count into private matrices merged into this one.
	Copies *CopyMatrix
	// Log, when non-nil, has every delivery appended to it in the
	// engine's deterministic (time, key) order. A log keeps the run on
	// one worker. Outside tests its one user is
	// core.Config.RecordDeliveries, which perfbench's traced repair.Run
	// probe sets; the engine and repair tests pin the ordered log
	// through both. A sink that needs no order should count deliveries
	// through Observe.
	Log *[]Delivery
	// Saturated models the heavy-traffic limiting regime of the paper's
	// worst-case analysis (Table IV): every hop is performed from
	// intermediate storage and pays the queueing delay D, regardless of
	// the actual transmitter state.
	Saturated bool
	// Fault, when non-nil, is consulted once per performed hop and may
	// drop the copy or taint its payload (see FaultHook). Nil costs one
	// predictable branch per event on the hot path. A hook keeps the run
	// on one worker, so it is never called concurrently and needs no
	// locking.
	Fault FaultHook
	// Control, when non-nil, attaches an online controller (see
	// Controller): it observes deliveries, sets timers, and may inject
	// new packets mid-run — the machinery behind the repair layer. Nil
	// costs one predictable branch per event and one per delivery.
	// A controller keeps the run on one worker, so it observes and
	// actuates the event stream sequentially.
	Control Controller
	// Observe, when non-nil, streams every performed hop and every
	// delivery to an observability sink (see Observer and
	// internal/observe). Nil costs one predictable branch per event and
	// one per delivery, preserving the allocation-free hot path. An
	// observer keeps the run on one worker, so sinks never need locking
	// and see the engine's deterministic (time, key) stream.
	Observe Observer
	// Ledger, when non-nil, accumulates every delivery into the O(N)
	// incremental Theorem-4 copy ledger (see CopyLedger) — the
	// counters-only replacement for the O(N²) Copies matrix at Q14+/Q16
	// scale. Like Copies it is shared across chained runs and verified
	// at the end; extra workers accumulate into ledgers of their own,
	// merged commutatively, so the final counts are identical at every
	// worker count.
	Ledger *CopyLedger
}

// runState is the working state of one Run. It lives inside a Scratch so
// that every slice — the event queue, the compiled routes, the
// dependency bookkeeping — keeps its backing array across runs. In a
// component-parallel run each extra worker drains a runState of its own
// (see components.go) that shares the compiled routes read-only and
// owns its queue, counters, ledger and link state.
type runState struct {
	net      *Network
	specs    []PacketSpec
	opts     Options
	queue    calQueue
	tokens   []int64 // controller timer tokens, indexed by set sequence
	res      *Result
	copies   *CopyMatrix // Options.Copies (worker-local on extra workers)
	ledger   *CopyLedger // Options.Ledger (worker-local on extra workers)
	freeAt   []Time      // link state this drain acquires: the network's own, or an extra worker's private copy
	bg       []bgProcess // background traffic beside freeAt; nil when ρ = 0
	arcStamp []int32     // per arc: spec index + 1 that last used it (duplicate detection)
	arcs     []int32     // backing store for routes compiled by this run
	specArcs [][]int32   // per spec: one arc index per hop (into arcs, or a caller-supplied CompiledPath)
	hops     int64       // total hops over all specs (sizes the worker count)
	children [][]int32   // per spec: dependent spec indices (built only for After lists or a controller)
	unmet    [][]int32   // per spec: parents that have not yet delivered at Route[0]
	ready    []Time      // per spec: latest parent delivery at Route[0]
	started  []bool
	corrupt  []bool // per spec: payload tainted by the fault hook (hook runs only)
	hasDeps  bool   // any spec has an After list (gates the dependency path)

	// Controller support (populated only when opts.Control != nil):
	// ownSpecs is a scratch-owned copy of the caller's specs so that
	// Runtime.Inject can append without aliasing caller memory, and now
	// is the time of the event currently being processed, so injections
	// can be validated against causality.
	ownSpecs []PacketSpec
	now      Time
}

// release drops the pointers a finished run would otherwise pin in the
// scratch (the caller's specs, options and sinks, the network's link
// state and the returned Result), keeping only the reusable backing
// arrays. A pooled scratch outlives its run, so a sink left here would
// keep, say, a whole delivery log alive until the pool is emptied.
func (st *runState) release() {
	st.net, st.specs, st.res = nil, nil, nil
	st.opts, st.copies, st.ledger = Options{}, nil, nil
	st.freeAt, st.bg = nil, nil
	// Route windows may alias caller-owned CompiledPaths; drop every
	// reference (including tail entries from earlier, larger runs) so the
	// scratch never pins a caller's compiled routes between runs.
	clear(st.specArcs[:cap(st.specArcs)])
	if len(st.ownSpecs) > 0 {
		// Spec copies hold route slices owned by the caller (or the
		// controller); drop them so the scratch pins only its own arrays.
		clear(st.ownSpecs)
		st.ownSpecs = st.ownSpecs[:0]
	}
}

// Run simulates the given packets to completion and returns aggregate
// results, drawing working memory from a pooled Scratch. Link state
// (transmitter reservations, background-traffic phase) persists across
// calls on the same Network, so staged algorithms can chain Runs; use a
// fresh Network for independent experiments.
func (n *Network) Run(specs []PacketSpec, opts Options) (*Result, error) {
	return n.RunScratch(specs, opts, nil)
}

// RunScratch is Run with caller-owned working memory: all transient
// allocations of the event loop live in sc and are reused by the next
// run. A nil sc borrows scratch from an internal pool. A Scratch must
// never be used by two goroutines at once; results are identical with
// or without reuse, and at every GOMAXPROCS (see components.go).
func (n *Network) RunScratch(specs []PacketSpec, opts Options, sc *Scratch) (*Result, error) {
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	st := &sc.st
	defer sc.release()
	if err := st.prepare(n, specs, opts); err != nil {
		return nil, err
	}
	if k := sc.partition(); k > 1 {
		sc.drainComponents(k)
		return st.finish()
	}
	for i, s := range specs {
		if len(s.After) > 0 {
			continue
		}
		// Source injection: startup τ_S, then request the first link.
		st.start(int32(i), s.Inject)
	}
	if c := opts.Control; c != nil {
		// The specs are copied into scratch-owned memory first so that
		// Runtime.Inject may append mid-run.
		st.ownSpecs = append(st.ownSpecs[:0], specs...)
		st.specs = st.ownSpecs
		st.now = 0
		c.Attach(&Runtime{st: st}, st.specs)
	}
	st.drain()
	return st.finish()
}

// drain is the hot loop of every run, and of every worker of a
// component-parallel one: take one whole tick bucket as a key-sorted
// slice, handle it back to back in one tight loop — no per-event heap
// sifting — and consume each event's same-tick respawn (the blocked
// cut-through fallback, whose key is the immediate successor of its
// spawner's) right after the event that spawned it, exactly where the
// heap would have popped it; then the tick's controller timers (see
// calQueue).
func (st *runState) drain() {
	q := &st.queue
	for {
		t, ok := q.nextTick()
		if !ok {
			return
		}
		b := q.takeTick(t)
		st.res.Events += int64(len(b))
		st.now = t
		for _, key := range b {
			st.handle(t, key)
			if q.sameN < len(q.same) {
				st.handleSame(t)
			}
		}
		for len(q.timers.a) > 0 && q.timers.a[0].t == t {
			tm := q.timers.pop()
			st.res.Events++
			st.opts.Control.OnTimer(t, st.tokens[tm.key&^timerKeyBit])
			st.handleSame(t)
		}
		q.finishTick(t, b)
	}
}

// handleSame handles the packets pushed at the open tick t in push order:
// a blocked cut-through's fallback send, or the packets a timer injected.
func (st *runState) handleSame(t Time) {
	q := &st.queue
	for q.sameN < len(q.same) {
		key := q.same[q.sameN]
		q.sameN++
		st.res.Events++
		st.handle(t, key)
	}
}

// prepare initializes the run state: it validates and compiles every
// route, builds the dependency tables when a spec or a controller needs
// them, and sizes the per-run recording structures.
func (st *runState) prepare(n *Network, specs []PacketSpec, opts Options) error {
	st.net, st.specs, st.opts = n, specs, opts
	st.res = &Result{}
	st.queue.reset(spanForParams(n.p))
	st.tokens = st.tokens[:0]
	st.copies, st.ledger = opts.Copies, opts.Ledger
	st.freeAt, st.bg = n.freeAt, n.bg
	if len(specs) > maxSpecs {
		return fmt.Errorf("simnet: %d packets exceed the engine's %d-packet capacity", len(specs), maxSpecs)
	}

	// Route compilation: one pass validates adjacency and duplicate
	// directed links, and emits each hop's arc index so the event loop
	// addresses links by slice indexing instead of hashing. arcStamp
	// detects a route traversing the same directed link twice (such a
	// packet would contend with itself and the schedule is malformed);
	// stamped with spec index + 1 so one cleared array serves every
	// spec. Routes that carry a CompiledPath skip both per-hop checks:
	// the path validated adjacency once at compilation, and the caller
	// certifies the window repeats no directed link (see
	// PacketSpec.Path) — that is what keeps a Q16-scale run's compiled
	// footprint at O(γN) instead of O(γN²).
	st.arcStamp = growInt32(st.arcStamp, len(n.freeAt))
	clear(st.arcStamp)
	st.specArcs = growArcLists(st.specArcs, len(specs))
	// The delivery log is sized for a run that loses no copy: a tee route
	// delivers at every node after its source, any other route once.
	plainHops, deliveries := 0, 0
	st.hops = 0
	for i := range specs {
		if specs[i].Path == nil {
			plainHops += len(specs[i].Route) - 1
		}
		st.hops += int64(len(specs[i].Route) - 1)
		deliveries++
		if specs[i].Tee {
			deliveries += len(specs[i].Route) - 2
		}
	}
	// Reserve the whole backing store up front: appends below never
	// reallocate, so the specArcs windows handed out stay valid.
	if cap(st.arcs) < plainHops {
		st.arcs = make([]int32, 0, plainHops)
	} else {
		st.arcs = st.arcs[:0]
	}
	hasDeps := false
	for i, s := range specs {
		if len(s.Route) < 2 {
			return fmt.Errorf("simnet: packet %d (%v) has route of %d nodes", i, s.ID, len(s.Route))
		}
		if len(s.Route) >= maxRouteLen {
			return fmt.Errorf("simnet: packet %d (%v) route of %d nodes exceeds the engine's %d-hop capacity",
				i, s.ID, len(s.Route), maxRouteLen-1)
		}
		if s.Inject < 0 {
			return fmt.Errorf("simnet: packet %d (%v) has negative inject time", i, s.ID)
		}
		if p := s.Path; p != nil {
			arcs, err := p.window(n, s.PathOff, s.Route)
			if err != nil {
				return fmt.Errorf("simnet: packet %d (%v): %w", i, s.ID, err)
			}
			st.specArcs[i] = arcs
		} else {
			arcs, err := st.compileRoute(s.Route, int32(i)+1)
			if err != nil {
				return fmt.Errorf("simnet: packet %d (%v) %w", i, s.ID, err)
			}
			st.specArcs[i] = arcs
		}
		if len(s.After) > 0 {
			hasDeps = true
		}
	}

	st.started = growBools(st.started, len(specs))
	clear(st.started)
	if opts.Fault != nil {
		// Taint bits are grown and cleared only when a hook is installed;
		// fault-free runs never touch the slice.
		st.corrupt = growBools(st.corrupt, len(specs))
		clear(st.corrupt)
	}
	st.hasDeps = hasDeps
	if hasDeps || opts.Control != nil {
		// Dependency tables, built only for runs that release children or
		// whose controller may Inject (which appends a row to each).
		st.children = resetLists(st.children, len(specs))
		st.unmet = resetLists(st.unmet, len(specs))
		st.ready = growTimes(st.ready, len(specs))
		clear(st.ready)
	}
	if hasDeps {
		for i, s := range specs {
			for _, parent := range s.After {
				if parent < 0 || parent >= len(specs) || parent == i {
					return fmt.Errorf("simnet: packet %d (%v) has invalid dependency %d", i, s.ID, parent)
				}
				for _, q := range st.unmet[i] {
					if q == int32(parent) {
						return fmt.Errorf("simnet: packet %d (%v) lists dependency %d twice", i, s.ID, parent)
					}
				}
				st.unmet[i] = append(st.unmet[i], int32(parent))
				st.children[parent] = append(st.children[parent], int32(i))
			}
		}
		if err := checkAcyclic(specs); err != nil {
			return err
		}
	}
	if opts.Log != nil {
		*opts.Log = slices.Grow(*opts.Log, deliveries)
	}
	return nil
}

// compileRoute appends one arc index per hop of route to st.arcs and
// returns the route's window into it. Each arc is stamped with stamp
// (spec index + 1) to catch a route using one directed link twice; a
// rejected route leaves st.arcs and the stamps as it found them, so a
// later route compiled under the same stamp is judged on its own.
func (st *runState) compileRoute(route []topology.Node, stamp int32) ([]int32, error) {
	base := len(st.arcs)
	for h := 0; h+1 < len(route); h++ {
		from, to := route[h], route[h+1]
		idx := st.net.arcIndex(from, to)
		var err error
		if idx < 0 {
			err = fmt.Errorf("route step %d: {%d,%d} not an edge of %s", h, from, to, st.net.g.Name())
		} else if st.arcStamp[idx] == stamp {
			err = fmt.Errorf("route uses directed link %d→%d twice", from, to)
		}
		if err != nil {
			for _, a := range st.arcs[base:] {
				st.arcStamp[a] = 0
			}
			st.arcs = st.arcs[:base]
			return nil, err
		}
		st.arcStamp[idx] = stamp
		st.arcs = append(st.arcs, idx)
	}
	return st.arcs[base:len(st.arcs):len(st.arcs)], nil
}

// finish verifies every packet was eventually injected and returns the
// run's Result.
func (st *runState) finish() (*Result, error) {
	for i := range st.specs {
		if !st.started[i] {
			return nil, fmt.Errorf("simnet: packet %d (%v) never injected: no parent delivered at node %d",
				i, st.specs[i].ID, st.specs[i].Route[0])
		}
	}
	return st.res, nil
}

// checkAcyclic rejects dependency cycles among the specs' After lists up
// front: a cyclic chain can never inject any of its packets, so the run
// would silently simulate everything else and only fail afterwards with a
// misleading "no parent delivered" error. Kahn's algorithm over the
// dependency arcs finds the offending packets and an example cycle.
func checkAcyclic(specs []PacketSpec) error {
	indeg := make([]int, len(specs))
	children := make([][]int, len(specs))
	for i, s := range specs {
		indeg[i] = len(s.After)
		for _, parent := range s.After {
			children[parent] = append(children[parent], i)
		}
	}
	queue := make([]int, 0, len(specs))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, c := range children[i] {
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if done == len(specs) {
		return nil
	}
	// Walk unresolved dependencies from any stuck packet until a spec
	// repeats; the walk stays within the cyclic component, so it yields a
	// concrete example cycle for the error message.
	start := -1
	for i, d := range indeg {
		if d > 0 {
			start = i
			break
		}
	}
	path := []int{start}
	seen := map[int]int{start: 0}
	for {
		cur := path[len(path)-1]
		next := -1
		for _, parent := range specs[cur].After {
			if indeg[parent] > 0 {
				next = parent
				break
			}
		}
		if at, ok := seen[next]; ok {
			cycle := ""
			for _, i := range path[at:] {
				cycle += fmt.Sprintf("%d (%v) → ", i, specs[i].ID)
			}
			return fmt.Errorf("simnet: dependency cycle: %s%d (%v)", cycle, next, specs[next].ID)
		}
		seen[next] = len(path)
		path = append(path, next)
	}
}

// start injects packet i at absolute time at.
func (st *runState) start(i int32, at Time) {
	st.started[i] = true
	st.push(at+st.net.p.TauS, i, 0, evSend)
	st.res.Injections++
}

// push enqueues a packet event at time t under its deterministic key.
func (st *runState) push(t Time, pkt, hop int32, kind evKind) {
	st.queue.push(event{t: t, key: packetKey(pkt, hop, kind)})
}

// pushTimer enqueues a controller timer; its token waits in the run's
// token table at the timer's set sequence. Timers order after all packet
// events at their tick and among themselves by set order.
func (st *runState) pushTimer(at Time, token int64) {
	st.queue.timers.push(event{t: at, key: timerKeyBit | uint64(len(st.tokens))})
	st.tokens = append(st.tokens, token)
}

// handle performs the packet event (t, key). Only an evCut needs its
// header's arrival time at the hop's source node, and that is always
// t − α: the one push site of evCut schedules it α after the header
// departs upstream.
func (st *runState) handle(t Time, key uint64) {
	pkt, hop, evk := decodeKey(key)
	spec := &st.specs[pkt]
	p := &st.net.p
	from := spec.Route[hop]
	to := spec.Route[hop+1]
	// Packet transmission time: Flits overrides the network default μ.
	pt := p.PacketTime()
	if spec.Flits > 0 {
		pt = Time(spec.Flits) * p.Alpha
	}
	arc := st.specArcs[pkt][hop]
	freeAt := &st.freeAt[arc]

	var depart Time
	var kind HopKind
	var blocked bool

	switch {
	case evk == evCut && !st.opts.Saturated:
		// Header requests the transmitter at t = arr + α.
		avail, bgHit := st.linkFree(arc, t)
		if avail <= t && !bgHit {
			depart, kind = t, HopCut
			st.res.CutThroughs++
		} else {
			if *freeAt > t {
				st.res.Contentions++
			}
			if bgHit {
				st.res.BgBlocked++
			}
			if p.Mode == Wormhole {
				// Stall in the network until the transmitter frees.
				depart, kind, blocked = max(t, avail)+p.D, HopStall, true
				st.res.Stalls++
			} else {
				// Virtual cut-through: buffer the packet and retry as a
				// store-and-forward send once fully received + started up.
				st.push(t-p.Alpha+pt+p.TauS, pkt, hop, evSend)
				return
			}
		}

	default: // evSend, or any request in Saturated mode
		ready := t
		if evk == evCut {
			// Saturated mode forces even would-be cut-throughs through
			// storage: full reception plus startup.
			ready = t - p.Alpha + pt + p.TauS
		}
		avail, bgHit := st.linkFree(arc, ready)
		switch {
		case st.opts.Saturated:
			depart, blocked = max(ready, avail)+p.D, true
		case avail <= ready && !bgHit:
			depart = ready
		default:
			if *freeAt > ready {
				st.res.Contentions++
			}
			if bgHit {
				st.res.BgBlocked++
			}
			depart, blocked = max(ready, avail)+p.D, true
		}
		if hop == 0 {
			kind = HopInject
		} else {
			kind = HopBuffer
			st.res.BufferedHops++
		}
	}

	// The fault hook sees the hop after its departure time is settled but
	// before the link is acquired: a dropped copy never occupies the
	// transmitter, schedules nothing downstream, and delivers nowhere.
	// (The hop-kind counters above record the switching decision that was
	// made; FaultDrops counts the hops canceled after that decision.)
	if st.opts.Fault != nil {
		switch st.opts.Fault.Relay(spec.ID, int(hop), from, to, depart) {
		case FaultDrop:
			st.res.FaultDrops++
			return
		case FaultCorrupt:
			st.corrupt[pkt] = true
			st.res.FaultTaints++
		}
	}

	// Acquire the link for [depart, depart+μα].
	*freeAt = depart + pt
	st.res.LinkBusy += pt

	tailAtNext := depart + pt
	last := int32(len(spec.Route) - 2)
	if st.opts.Observe != nil {
		flits := p.Mu
		if spec.Flits > 0 {
			flits = spec.Flits
		}
		st.opts.Observe.OnHop(HopEvent{
			ID: spec.ID, Hop: int(hop), From: from, To: to,
			Arc:  int(arc),
			Kind: kind, HeaderDepart: depart, TailArrive: tailAtNext,
			Flits: flits, Blocked: blocked,
		})
	}
	// The next node receives a copy if it is the final node, or by the
	// tee operation while the packet passes through.
	if hop == last || spec.Tee {
		st.deliver(pkt, to, tailAtNext)
	}
	if hop < last {
		// Header arrives at `to` at depart; after the FIFO transit α it
		// requests the next transmitter (cut-through path), or goes
		// through storage in store-and-forward mode.
		if p.Mode == StoreAndForward {
			st.push(depart+pt+p.TauS, pkt, hop+1, evSend)
		} else {
			st.push(depart+p.Alpha, pkt, hop+1, evCut)
		}
	}
}

// linkFree returns the earliest time >= t the link arc is free of both
// broadcast and background traffic, and whether background traffic was
// occupying it at the query time.
func (st *runState) linkFree(arc int32, t Time) (Time, bool) {
	avail := max(st.freeAt[arc], t)
	if st.bg == nil {
		return avail, false
	}
	return st.bg[arc].freeFrom(avail)
}

func (st *runState) deliver(pkt int32, node topology.Node, at Time) {
	id := st.specs[pkt].ID
	st.res.Deliveries++
	if st.hasDeps && len(st.children[pkt]) > 0 {
		st.releaseDeps(pkt, node, at)
	}
	if at > st.res.Finish {
		st.res.Finish = at
	}
	if st.copies != nil {
		st.copies.Add(node, id.Source)
	}
	if st.ledger != nil {
		st.ledger.Add(node, id.Source)
	}
	if st.opts.Log != nil || st.opts.Observe != nil {
		d := Delivery{
			ID: id, Node: node, At: at,
			Corrupted: st.opts.Fault != nil && st.corrupt[pkt],
		}
		if log := st.opts.Log; log != nil {
			*log = append(*log, d)
		}
		if st.opts.Observe != nil {
			st.opts.Observe.OnDeliver(d)
		}
	}
	if st.opts.Control != nil {
		st.opts.Control.OnDeliver(pkt, node, at)
	}
}

// releaseDeps satisfies pkt's delivery at node for every dependent
// child, starting children whose last parent this was.
func (st *runState) releaseDeps(pkt int32, node topology.Node, at Time) {
	for _, c := range st.children[pkt] {
		child := &st.specs[c]
		if child.Route[0] != node {
			continue
		}
		// Each parent satisfies its dependency at most once, even if it
		// delivers several copies at the child's source (e.g. a tee route
		// revisiting the node): a second copy from one parent must not
		// release a child still waiting on a different parent.
		w := st.unmet[c]
		k := -1
		for idx, parent := range w {
			if parent == pkt {
				k = idx
				break
			}
		}
		if k < 0 {
			continue
		}
		w[k] = w[len(w)-1]
		st.unmet[c] = w[:len(w)-1]
		if at > st.ready[c] {
			st.ready[c] = at
		}
		if len(st.unmet[c]) == 0 {
			st.start(c, st.ready[c]+child.Inject)
		}
	}
}
