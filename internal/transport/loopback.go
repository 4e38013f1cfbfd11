package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ihc/internal/topology"
)

// LoopbackConfig shapes an in-process mesh.
type LoopbackConfig struct {
	Graph *topology.Graph
	// Latency is the per-hop link latency every frame pays: the wall
	// time of the paper's per-hop cost τ_S + α.
	Latency time.Duration
	// Filter, when non-nil, interposes on every directed link — this
	// is where the chaos plan attaches.
	Filter LinkFilter
	// Epoch anchors the Filter's time axis; defaults to creation time.
	Epoch time.Time
}

// Loopback is an in-process network: every node of the graph gets an
// Endpoint, and every frame in flight waits in one delivery queue,
// ordered by release time and then by send order, that a single
// goroutine drains into the receivers' inboxes. A frame is released at
// its send time plus the fixed latency and the filter's delay, but
// never before the frame sent ahead of it on its directed link, so
// each link stays FIFO as in a store-and-forward mesh, and frames from
// different links leave in a deterministic order. An optional
// LinkFilter injects faults. It is the race-detector-friendly substrate
// for the cluster protocol tests.
type Loopback struct {
	cfg     LoopbackConfig
	eps     []loopEndpoint
	closed  atomic.Bool
	wake    chan struct{} // one token: a Send queued a new head
	done    chan struct{}
	drained chan struct{} // closed when drain returns

	mu    sync.Mutex
	queue frameHeap
	seq   uint64
	arcs  []arcQueue // per directed arc, in Graph.Arcs order
}

// arcQueue is one directed link's share of the delivery queue.
type arcQueue struct {
	tail     int64 // release of the link's last queued frame
	inFlight int32 // frames queued on the link, at most queueLen
}

// NewLoopback builds the mesh and starts its one delivery goroutine.
func NewLoopback(cfg LoopbackConfig) (*Loopback, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("transport: loopback requires a graph")
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Now()
	}
	lb := &Loopback{
		cfg:     cfg,
		eps:     make([]loopEndpoint, cfg.Graph.N()),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	arc := int32(0)
	for v := range lb.eps {
		nbrs := cfg.Graph.Neighbors(topology.Node(v))
		lb.eps[v] = loopEndpoint{
			mesh:  lb,
			self:  topology.Node(v),
			nbrs:  nbrs,
			arc0:  arc,
			inbox: make(chan []byte, queueLen),
		}
		arc += int32(len(nbrs))
	}
	lb.arcs = make([]arcQueue, arc)
	go lb.drain()
	return lb, nil
}

// since is the mesh's clock: nanoseconds after its Epoch.
func (lb *Loopback) since() time.Duration { return time.Since(lb.cfg.Epoch) }

// push queues copies of body on arc toward to, released no earlier than
// release nor than the arc's previous frame. A full arc refuses the
// copies that do not fit. The drain goroutine is woken only when a copy
// became the new head, the one change that can move its next wake-up
// earlier.
func (lb *Loopback) push(arc int32, to topology.Node, release int64, body []byte, copies int) bool {
	lb.mu.Lock()
	a := &lb.arcs[arc]
	if release < a.tail {
		release = a.tail
	}
	queued, head := 0, false
	for ; queued < copies && a.inFlight < queueLen; queued++ {
		a.inFlight++
		lb.seq++
		if lb.queue.push(inflight{release: release, seq: lb.seq, arc: arc, to: int32(to), body: body}) {
			head = true
		}
	}
	if queued > 0 {
		a.tail = release
	}
	lb.mu.Unlock()
	if head {
		select {
		case lb.wake <- struct{}{}:
		default:
		}
	}
	return queued == copies
}

// drain is the mesh's one goroutine. At each wake-up it hands every
// frame whose release has come to its receiver's inbox, in queue order,
// counting a full inbox as a drop, then sleeps until the next release
// or a new head.
func (lb *Loopback) drain() {
	defer close(lb.drained)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []inflight
	for {
		lb.mu.Lock()
		now := int64(lb.since())
		for len(lb.queue) > 0 && lb.queue[0].release <= now {
			f := lb.queue.pop()
			lb.arcs[f.arc].inFlight--
			due = append(due, f)
		}
		wait := time.Duration(-1)
		if len(lb.queue) > 0 {
			wait = time.Duration(lb.queue[0].release - now)
		}
		lb.mu.Unlock()
		for i := range due {
			dst := &lb.eps[due[i].to]
			select {
			case dst.inbox <- due[i].body:
				dst.received.Add(1)
			default:
				dst.droppedRx.Add(1)
			}
			due[i] = inflight{}
		}
		due = due[:0]
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if wait >= 0 {
			timer.Reset(wait)
		}
		select {
		case <-lb.done:
			return
		case <-lb.wake:
		case <-timer.C:
		}
	}
}

// Endpoint returns node v's attachment.
func (lb *Loopback) Endpoint(v topology.Node) (Endpoint, error) {
	if int(v) < 0 || int(v) >= len(lb.eps) {
		return nil, fmt.Errorf("transport: node %d outside [0,%d)", v, len(lb.eps))
	}
	return &lb.eps[v], nil
}

// Close stops the delivery goroutine, then closes every inbox. Frames
// still queued are discarded.
func (lb *Loopback) Close() error {
	if lb.closed.Swap(true) {
		return nil
	}
	close(lb.done)
	<-lb.drained
	for v := range lb.eps {
		close(lb.eps[v].inbox)
	}
	return nil
}

// inflight is one frame between Send and its receiver's inbox.
type inflight struct {
	release int64  // mesh clock at which the frame is due
	seq     uint64 // send order, which breaks ties in release
	arc, to int32
	body    []byte
}

// frameHeap is the delivery queue: a binary min-heap by (release, seq).
type frameHeap []inflight

func (h frameHeap) less(i, j int) bool {
	return h[i].release < h[j].release || (h[i].release == h[j].release && h[i].seq < h[j].seq)
}

// push adds f and reports whether it became the head.
func (h *frameHeap) push(f inflight) bool {
	q := append(*h, f)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
	return i == 0
}

// pop removes and returns the head.
func (h *frameHeap) pop() inflight {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = inflight{}
	q = q[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(q) {
			break
		}
		if r := m + 1; r < len(q) && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

type loopEndpoint struct {
	mesh  *Loopback
	self  topology.Node
	nbrs  []topology.Node // the graph's sorted adjacency list of self
	arc0  int32           // arc index of self→nbrs[0]
	inbox chan []byte

	sent, received, sendErrors, droppedRx atomic.Int64
}

func (e *loopEndpoint) Recv() <-chan []byte         { return e.inbox }
func (e *loopEndpoint) Close() error                { return nil }
func (e *loopEndpoint) PeerDown(topology.Node) bool { return false }

func (e *loopEndpoint) Stats() EndpointStats {
	return EndpointStats{
		Sent:       e.sent.Load(),
		Received:   e.received.Load(),
		SendErrors: e.sendErrors.Load(),
		DroppedRx:  e.droppedRx.Load(),
	}
}

func (e *loopEndpoint) Send(to topology.Node, f *Frame) error {
	lb := e.mesh
	if lb.closed.Load() {
		e.sendErrors.Add(1)
		return fmt.Errorf("transport: loopback closed")
	}
	// The neighbor scan is both the adjacency check and the arc lookup.
	arc := int32(-1)
	for i, w := range e.nbrs {
		if w == to {
			arc = e.arc0 + int32(i)
			break
		}
	}
	if arc < 0 {
		e.sendErrors.Add(1)
		return notLink(lb.cfg.Graph, e.self, to)
	}
	body, err := EncodeFrame(f)
	if err != nil {
		e.sendErrors.Add(1)
		return err
	}
	now := lb.since() // the filter's offset and the release's base
	release := now + lb.cfg.Latency
	copies := 1
	if lb.cfg.Filter != nil {
		act := lb.cfg.Filter.Filter(e.self, to, now)
		if act.Drop {
			// Chaos losses count as sent: the sender cannot tell.
			e.sent.Add(1)
			return nil
		}
		if act.Corrupt && len(body) > 0 {
			body[len(body)/2] ^= 0xFF
		}
		if act.Duplicate {
			copies = 2
		}
		release += act.Delay
	}
	if !lb.push(arc, to, int64(release), body, copies) {
		e.sendErrors.Add(1)
		return fmt.Errorf("transport: link %d->%d queue full", e.self, to)
	}
	e.sent.Add(1)
	return nil
}
