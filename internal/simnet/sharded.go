package simnet

import (
	"fmt"
	"math"
	"sync"
)

// Conservative sharded execution of a single run.
//
// The links (directed arcs) are partitioned into contiguous ranges, one
// per worker; every event belongs to exactly one arc (the link its hop
// requests), hence to exactly one shard. Workers process events in
// global (time, key) order *per shard* inside synchronized time windows:
//
//	window k = [minT, minT + L)
//
// where minT is the earliest pending event across all shards and L is
// the engine's lookahead (see Network.lookahead). The engine's spawn
// structure guarantees that handling an event at time t can create an
// event on a *different* arc no earlier than t + L — the same per-link
// independence that underlies the paper's Theorem 3 contention-freeness
// argument — so every event of window k already sits in some shard's
// heap when the window opens, and shards cannot affect one another
// within a window. Cross-shard spawns are buffered in per-target
// outboxes and drained at the window barrier; the one spawn that can
// share its spawner's timestamp (the blocked virtual-cut-through
// fallback) re-requests the same arc and therefore stays on its own
// shard, outside the lookahead argument entirely.
//
// Determinism is exact, not statistical. Because event keys make the
// sequential processing order a pure function of the event set (see
// packetKey), each shard's calendar queue replays precisely the
// sequential order restricted to its arcs: per-link state transitions,
// background-traffic RNG consumption, and every counter come out
// identical at any worker count. Order-sensitive outputs are
// reconstructed at merge time: each shard appends deliveries and traces
// in its own processing order — already globally (time, key)-sorted,
// since windows advance monotonically and each window is drained in
// order — so a W-way linear merge of the per-shard streams rebuilds the
// exact sequential log without a global sort; observer records are
// buffered per window and replayed to the sink from one goroutine the
// same way.
//
// Shared mutable state is confined to the dependency tables (After
// lists), which only the serialized baselines use: release operations
// commute (each parent removes itself once, readiness keeps a running
// max, the final removal starts the child), so a mutex around the rare
// release path preserves byte-identity there too. Controllers are
// refused: an online controller observes and actuates the global stream
// sequentially by contract.

// lookahead returns the window width L: the minimum simulated-time
// distance between an event and any event its handling can create on a
// different arc. Derivation over the engine's spawn sites, for an event
// at time t:
//
//   - next-hop cut-through request: depart + α with depart >= t, so >= t+α;
//   - next-hop store-and-forward send: depart + pt + τ_S >= t + α + τ_S
//     (pt >= α because packets are at least one flit);
//   - dependency release: the delivery happens at depart + pt >= t + α,
//     and the child injects no earlier than delivery + τ_S;
//   - blocked-cut-through fallback: may land at exactly t, but on the
//     same arc — shard-local, so it does not bound the window.
//
// Hence L = α universally, improved to α + τ_S in store-and-forward
// mode where no cut-through requests exist.
func (n *Network) lookahead() Time {
	if n.p.Mode == StoreAndForward {
		return n.p.Alpha + n.p.TauS
	}
	return n.p.Alpha
}

// taggedDeliv is a delivery tagged with its event's (time, key) so the
// merge can reconstruct the sequential append order. One event delivers
// at most one copy, so tags are unique and the sort is a total order.
type taggedDeliv struct {
	t   Time
	key uint64
	d   Delivery
}

// taggedHop is one trace entry tagged the same way. The engine performs
// each (packet, hop) at most once, so tags are unique here as well.
type taggedHop struct {
	t   Time
	key uint64
	pkt int32
	h   Hop
}

// obsRec is one buffered observer record: a hop when isHop, a delivery
// otherwise. Buffered per shard per window and replayed in (t, key)
// order; a hop and the delivery it causes carry the same tag, and the
// merge emits the hop first, matching the sequential callback order.
type obsRec struct {
	t     Time
	key   uint64
	isHop bool
	hop   HopEvent
	del   Delivery
}

// shard is one worker's slice of a sharded run: a contiguous arc range,
// the per-link state behind it (via its own event heap and runState
// counters), and the buffers that carry order-sensitive output to the
// merge. All slices are retained in the Scratch across runs.
type shard struct {
	st     runState
	id     int
	run    *shardedRun
	outbox [][]event // outbox[target]: cross-shard spawns for target, drained at the barrier
	delivs []taggedDeliv
	traces []taggedHop
	obs    []obsRec
	obsPos int         // consumption cursor during the per-window observer replay
	ledger *CopyLedger // shard-local Theorem-4 ledger (Options.Ledger runs), retained across runs
}

// owner maps an arc id to the shard that owns it.
func (sh *shard) owner(arc int32) int { return int(arc) / sh.run.chunk }

// shardedRun is the state shared by all shards of one run.
type shardedRun struct {
	chunk int // arcs per shard (ceiling); owner(arc) = arc / chunk
	depMu sync.Mutex
}

// drainCmd is the out-of-band worker command for the outbox-drain phase;
// any other value received is a window end time. Simulated times are
// non-negative, so the sentinel cannot collide.
const drainCmd = Time(math.MinInt64)

// runSharded is RunScratch's EngineWorkers > 1 path.
func (n *Network) runSharded(specs []PacketSpec, opts Options, sc *Scratch) (*Result, error) {
	if opts.Control != nil {
		return nil, fmt.Errorf("simnet: EngineWorkers=%d is incompatible with a Controller: controllers observe and actuate the event stream sequentially", opts.EngineWorkers)
	}
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	st := &sc.st
	defer st.release()
	if err := st.prepare(n, specs, opts); err != nil {
		return nil, err
	}
	w := opts.EngineWorkers
	if nArcs := len(n.freeAt); w > nArcs {
		// More workers than arcs would leave shards owning nothing.
		w = nArcs
	}
	if w < 2 {
		// Degenerate shard count (tiny graph): run the sequential loop —
		// identical results by construction, no worker machinery.
		for i, s := range specs {
			if len(s.After) == 0 {
				st.start(int32(i), s.Inject)
			}
		}
		st.drainUntil(Time(math.MaxInt64))
		return st.finish()
	}

	run := &shardedRun{chunk: (len(n.freeAt) + w - 1) / w}
	shards := sc.shardSlots(w)
	defer releaseShards(shards)
	for i, sh := range shards {
		sh.id, sh.run = i, run
		if cap(sh.outbox) < w {
			sh.outbox = make([][]event, w)
		} else {
			sh.outbox = sh.outbox[:w]
		}
		sst := &sh.st
		sst.net, sst.specs, sst.opts = n, st.specs, opts
		sst.specArcs = st.specArcs
		sst.children, sst.unmet = st.children, st.unmet
		sst.ready, sst.started, sst.corrupt = st.ready, st.started, st.corrupt
		sst.hasDeps = st.hasDeps
		sst.res = &Result{}
		sst.queue.reset(spanForParams(n.p))
		sst.sh = sh
		if opts.Copies {
			sst.res.Copies = NewCopyMatrix(n.g.N())
		}
		if opts.Ledger != nil {
			// Shard-local ledger, merged commutatively after the run; the
			// backing arrays are retained in the scratch across runs.
			if sh.ledger == nil || sh.ledger.N() != opts.Ledger.N() {
				sh.ledger = NewCopyLedger(opts.Ledger.N())
			} else {
				sh.ledger.Reset()
			}
			sst.ledger = sh.ledger
		}
	}
	// Initial injections go straight into the owning shard's heap:
	// start() routes by the packet's first arc, which for the starting
	// shard is always local.
	for i := range st.specs {
		if len(st.specs[i].After) > 0 {
			continue
		}
		sh := shards[int(st.specArcs[i][0])/run.chunk]
		sh.st.start(int32(i), st.specs[i].Inject)
	}

	// Window loop: two barriers per window. Phase one processes every
	// event inside [minT, minT+L) shard-locally; phase two drains the
	// outboxes (each shard pulls its own inbound events, so the drain is
	// itself parallel — with scattered routes most spawns cross shards,
	// and a serial drain would dominate). Between barriers the main
	// goroutine alone reads shard heaps for the next minT and replays
	// buffered observer records; the channel handshakes order all of it.
	lookahead := n.lookahead()
	cmds := make([]chan Time, w)
	done := make(chan struct{}, w)
	for i, sh := range shards {
		cmds[i] = make(chan Time, 1)
		go func(sh *shard, cmd <-chan Time) {
			for c := range cmd {
				if c == drainCmd {
					sh.drain(shards)
				} else {
					sh.runWindow(c)
				}
				done <- struct{}{}
			}
		}(sh, cmds[i])
	}
	barrier := func(c Time) {
		for _, ch := range cmds {
			ch <- c
		}
		for range shards {
			<-done
		}
	}
	for {
		minT := Time(math.MaxInt64)
		for _, sh := range shards {
			// nextTick may migrate overflow events into the calendar ring;
			// between barriers only this goroutine touches shard queues, so
			// the reorganization is safe and the worker resumes from it.
			if t, ok := sh.st.queue.nextTick(); ok && t < minT {
				minT = t
			}
		}
		if minT == math.MaxInt64 {
			break
		}
		barrier(minT + lookahead)
		barrier(drainCmd)
		if opts.Observe != nil {
			replayObservations(shards, opts.Observe)
		}
	}
	for _, ch := range cmds {
		close(ch)
	}

	res := st.res
	for _, sh := range shards {
		r := sh.st.res
		res.Finish = max(res.Finish, r.Finish)
		res.Deliveries += r.Deliveries
		res.Contentions += r.Contentions
		res.BgBlocked += r.BgBlocked
		res.CutThroughs += r.CutThroughs
		res.BufferedHops += r.BufferedHops
		res.Stalls += r.Stalls
		res.Injections += r.Injections
		res.Events += r.Events
		res.LinkBusy += r.LinkBusy
		res.FaultDrops += r.FaultDrops
		res.FaultTaints += r.FaultTaints
		if res.Copies != nil {
			// Saturating merge is order-independent: min(a+b+c, cap) no
			// matter how the pairwise merges associate.
			res.Copies.Merge(r.Copies)
		}
		if opts.Ledger != nil {
			// Sum merge is commutative, so the caller's ledger ends up
			// identical at every worker count.
			opts.Ledger.Merge(sh.ledger)
		}
	}
	// Each shard appended its deliveries and traces in processing order,
	// which is already the global (time, key) order restricted to that
	// shard — so one W-way linear merge per stream reconstructs the
	// sequential engine's append order byte for byte, replacing the old
	// concatenate-and-sort (O(n log n) with a closure-calling comparator)
	// with a single O(n·W) pass into the buffer prepare sized.
	if opts.RecordDeliveries {
		total := 0
		for _, sh := range shards {
			total += len(sh.delivs)
		}
		pos := make([]int, len(shards))
		for len(res.Deliveriesv) < total {
			best := -1
			var bt Time
			var bk uint64
			for s, sh := range shards {
				if pos[s] >= len(sh.delivs) {
					continue
				}
				r := &sh.delivs[pos[s]]
				if best < 0 || r.t < bt || (r.t == bt && r.key < bk) {
					best, bt, bk = s, r.t, r.key
				}
			}
			res.Deliveriesv = append(res.Deliveriesv, shards[best].delivs[pos[best]].d)
			pos[best]++
		}
	}
	if opts.Trace {
		total := 0
		for _, sh := range shards {
			total += len(sh.traces)
		}
		pos := make([]int, len(shards))
		for merged := 0; merged < total; merged++ {
			best := -1
			var bt Time
			var bk uint64
			for s, sh := range shards {
				if pos[s] >= len(sh.traces) {
					continue
				}
				r := &sh.traces[pos[s]]
				if best < 0 || r.t < bt || (r.t == bt && r.key < bk) {
					best, bt, bk = s, r.t, r.key
				}
			}
			th := &shards[best].traces[pos[best]]
			pos[best]++
			id := st.specs[th.pkt].ID
			res.Traces[id] = append(res.Traces[id], th.h)
		}
	}
	return st.finish()
}

// runWindow processes every pending event strictly before end, one
// whole tick-bucket at a time (see drainUntil). Spawns for this shard's
// own arcs enter the calendar immediately (and are drained within the
// window if they fall inside it); cross-shard spawns land in outboxes
// with t >= end by the lookahead bound.
func (sh *shard) runWindow(end Time) {
	sh.st.drainUntil(end)
}

// drain moves every event other shards spawned for this shard into its
// calendar queue. Each shard writes only its own outbox slot in every
// peer, so the phase runs without locks.
func (sh *shard) drain(all []*shard) {
	for _, o := range all {
		box := o.outbox[sh.id]
		for i := range box {
			sh.st.queue.push(box[i])
		}
		o.outbox[sh.id] = box[:0]
	}
}

// replayObservations merges the shards' buffered observer records in
// (time, key) order and replays them to the sink from the main
// goroutine. Within one event's tag a hop precedes the delivery it
// caused (isHop breaks the tie), matching the sequential callback order;
// an O(W) scan per record keeps the merge allocation-free.
func replayObservations(shards []*shard, obs Observer) {
	for {
		var best *obsRec
		bestShard := -1
		for s, sh := range shards {
			if sh.obsPos >= len(sh.obs) {
				continue
			}
			r := &sh.obs[sh.obsPos]
			if best == nil || r.t < best.t || (r.t == best.t && (r.key < best.key ||
				(r.key == best.key && r.isHop && !best.isHop))) {
				best, bestShard = r, s
			}
		}
		if best == nil {
			break
		}
		shards[bestShard].obsPos++
		if best.isHop {
			obs.OnHop(best.hop)
		} else {
			obs.OnDeliver(best.del)
		}
	}
	for _, sh := range shards {
		sh.obs, sh.obsPos = sh.obs[:0], 0
	}
}

// releaseShards drops everything a finished run would otherwise pin:
// result pointers, the shared dependency tables, buffered records. The
// backing arrays stay for the next run.
func releaseShards(shards []*shard) {
	for _, sh := range shards {
		sh.st.release()
		sh.st.children, sh.st.unmet = nil, nil
		sh.st.ready, sh.st.started, sh.st.corrupt = nil, nil, nil
		sh.run = nil
		for i := range sh.outbox {
			sh.outbox[i] = sh.outbox[i][:0]
		}
		sh.delivs = sh.delivs[:0]
		sh.traces = sh.traces[:0]
		sh.obs, sh.obsPos = sh.obs[:0], 0
	}
}
