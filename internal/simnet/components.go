package simnet

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
)

// Component-parallel execution of a single run.
//
// A hop reads and writes the state of one directed link — its
// transmitter reservation (freeAt) and, when ρ > 0, its background
// process — and nothing else, once dependencies, controllers, fault hooks
// and the ordered outputs are ruled out. Packets whose routes share no
// directed link therefore never influence each other, and a run splits
// into components: the classes of specs connected by shared arcs, found
// by union-find over the compiled arcs. IHC's γ directed Hamiltonian
// cycles share no directed link (Lee–Shin build them from edge-disjoint
// undirected cycles), so every cycle of a stage run is a component.
//
// A run of at least parallelMinHops hops with at least two components,
// no After dependencies, and no Control, Observe, Log or Fault drains
// them on up to GOMAXPROCS goroutines, balanced by hop count; any other
// run drains on one. GOMAXPROCS is the only setting of a run's width.
// Worker 0 is the Scratch's own runState: it acquires the network's link
// state in place and adds to the caller's sinks. Every other worker owns
// a calendar queue, counters, a private copy matrix and ledger where the
// caller passed one, and a private copy of the link state, so no two
// workers write one cache line; after the drain it writes the link state
// of its own arcs back to the network and merges its counters and sinks
// into the caller's.
//
// Results are byte-identical at every worker count. A worker handles its
// events in (time, key) order, which restricted to one arc is the
// sequential order (packetKey makes the order a function of the event
// set alone), so every link sees the same requests in the same order and
// makes the same switching decisions and background-traffic draws. What
// is left to combine is commutative: the counters, the copy matrix and
// the ledger are sums, and Finish is a max (Result.Merge).

// parallelMinHops is the smallest run, in hops summed over its packets,
// that spreads over several workers. Smaller runs stay on one: the
// goroutine start-up, the private link-state copies and the merge then
// cost about what the parallel drain saves. On a 2-vCPU KVM guest, two
// workers tied with one on Q6 stage runs at η = 2 (~12K hops each) and
// won about 1.5× at η = 1 (~24K hops).
var parallelMinHops int64 = 20_000

// workerLimit returns how many workers may drain the prepared run.
func (st *runState) workerLimit() int {
	o := &st.opts
	if st.hasDeps || o.Control != nil || o.Fault != nil || o.Observe != nil ||
		o.Log != nil || st.hops < parallelMinHops {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// partition is the reusable working memory of component planning.
type partition struct {
	// uf is the union-find forest over arc ids: a parent arc, -1 for a
	// root no spec reached, or -2-c for the root of component c.
	uf     []int32
	hops   []int64         // per component: hops of its specs
	worker []int32         // per component: the worker that drains it
	order  []int32         // components, heaviest first
	loads  []int64         // per worker: hops assigned so far
	paths  []*CompiledPath // compiled paths already unioned this run
}

// find returns the root of arc a's class, halving the path on the way.
func (p *partition) find(a int32) int32 {
	uf := p.uf
	for {
		up := uf[a]
		if up < 0 {
			return a
		}
		if top := uf[up]; top >= 0 {
			uf[a] = top
			a = top
		} else {
			return up
		}
	}
}

// union merges the classes of every arc in arcs.
func (p *partition) union(arcs []int32) {
	r := p.find(arcs[0])
	for _, a := range arcs[1:] {
		if ra := p.find(a); ra != r {
			p.uf[ra] = r
		}
	}
}

// comp returns the component of arc a, or -1 when no spec uses its class.
func (p *partition) comp(a int32) int32 { return -p.uf[p.find(a)] - 2 }

// unioned reports whether path was already unioned this run, recording it
// if not. A run references few paths (γ in IHC), so a scan suffices.
func (p *partition) unioned(path *CompiledPath) bool {
	if slices.Contains(p.paths, path) {
		return true
	}
	p.paths = append(p.paths, path)
	return false
}

// partition decides how many workers drain the prepared run, and when
// that is more than one, assigns every component to a worker: heaviest
// component first, each to the worker with the fewest hops so far. It
// returns 1 for a run that must stay on one worker or has one component.
func (sc *Scratch) partition() int {
	st := &sc.st
	limit := st.workerLimit()
	if limit < 2 {
		return 1
	}
	p := &sc.part
	p.uf = growInt32(p.uf, len(st.freeAt))
	for i := range p.uf {
		p.uf[i] = -1
	}
	for i := range st.specs {
		// Every window of a compiled path lies inside it, so one union of
		// the path covers all of its specs.
		if path := st.specs[i].Path; path != nil {
			if !p.unioned(path) {
				p.union(path.arcs)
			}
			continue
		}
		p.union(st.specArcs[i])
	}
	clear(p.paths)
	p.paths = p.paths[:0]

	p.hops = p.hops[:0]
	for i := range st.specs {
		r := p.find(st.specArcs[i][0])
		if p.uf[r] == -1 {
			p.uf[r] = int32(-2 - len(p.hops))
			p.hops = append(p.hops, 0)
		}
		p.hops[-p.uf[r]-2] += int64(len(st.specArcs[i]))
	}
	k := min(limit, len(p.hops))
	if k < 2 {
		return 1
	}
	p.order = growInt32(p.order, len(p.hops))
	for c := range p.order {
		p.order[c] = int32(c)
	}
	slices.SortFunc(p.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(p.hops[b], p.hops[a]), cmp.Compare(a, b))
	})
	p.worker = growInt32(p.worker, len(p.hops))
	p.loads = append(p.loads[:0], make([]int64, k)...)
	for _, c := range p.order {
		w := 0
		for i, l := range p.loads {
			if l < p.loads[w] {
				w = i
			}
		}
		p.worker[c] = int32(w)
		p.loads[w] += p.hops[c]
	}
	return k
}

// worker is one extra drain of a component-parallel run; worker 0 is the
// Scratch's own runState. Its Result lives inline, and the pads keep its
// per-event counters and queue cursors off the cache lines of
// neighbouring allocations: workers whose hot state shared a line ran
// slower together than one worker alone.
type worker struct {
	_      [64]byte
	st     runState
	res    Result
	copies *CopyMatrix // reused across runs, merged into Options.Copies
	ledger *CopyLedger // reused across runs, merged into Options.Ledger
	_      [64]byte
}

// drainComponents runs the prepared run on k workers as partition
// assigned them: it injects every packet into its worker's queue, drains
// workers 1..k-1 on goroutines of their own and worker 0 on the calling
// one, then writes the extra workers' link state back and merges their
// counters into the run's and their sinks into the caller's.
func (sc *Scratch) drainComponents(k int) {
	st, p := &sc.st, &sc.part
	n := st.net
	for len(sc.workers) < k-1 {
		sc.workers = append(sc.workers, new(worker))
	}
	extra := sc.workers[:k-1]
	for _, w := range extra {
		ws := &w.st
		ws.net, ws.specs, ws.opts = n, st.specs, st.opts
		ws.specArcs, ws.started = st.specArcs, st.started
		w.res = Result{}
		ws.res = &w.res
		ws.queue.reset(spanForParams(n.p))
		ws.freeAt = slices.Clone(n.freeAt)
		ws.bg = slices.Clone(n.bg)
		if c := st.opts.Copies; c != nil {
			if w.copies == nil || w.copies.n != c.n {
				w.copies = NewCopyMatrix(c.n)
			} else {
				clear(w.copies.counts)
			}
			ws.copies = w.copies
		}
		if l := st.opts.Ledger; l != nil {
			if w.ledger == nil || w.ledger.N() != l.N() {
				w.ledger = NewCopyLedger(l.N())
			} else {
				w.ledger.Reset()
			}
			ws.ledger = w.ledger
		}
	}
	for i := range st.specs {
		ws := st
		if w := p.worker[p.comp(st.specArcs[i][0])]; w > 0 {
			ws = &extra[w-1].st
		}
		ws.start(int32(i), st.specs[i].Inject)
	}

	var wg sync.WaitGroup
	for _, w := range extra {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.st.drain()
		}()
	}
	st.drain()
	wg.Wait()

	for a := range n.freeAt {
		c := p.comp(int32(a))
		if c < 0 || p.worker[c] == 0 {
			continue
		}
		ws := &extra[p.worker[c]-1].st
		n.freeAt[a] = ws.freeAt[a]
		if n.bg != nil {
			n.bg[a] = ws.bg[a]
		}
	}
	for _, w := range extra {
		st.res.Merge(&w.res)
		if c := st.opts.Copies; c != nil {
			// Saturating adds are order-independent: min(a+b+c, cap) no
			// matter how the merges associate.
			c.Merge(w.copies)
		}
		if l := st.opts.Ledger; l != nil {
			l.Merge(w.ledger)
		}
	}
}
