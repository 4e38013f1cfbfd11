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

type loopQueued struct {
	body  []byte
	after time.Time
}

// Loopback is an in-process network: every node of the graph gets an
// Endpoint, frames cross per-directed-link FIFO goroutines with a fixed
// latency, and an optional LinkFilter injects faults. It is the
// race-detector-friendly substrate for the cluster protocol tests.
type Loopback struct {
	cfg    LoopbackConfig
	eps    []*loopEndpoint
	links  map[[2]topology.Node]chan loopQueued
	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewLoopback builds the mesh and starts its link goroutines.
func NewLoopback(cfg LoopbackConfig) (*Loopback, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("transport: loopback requires a graph")
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Now()
	}
	lb := &Loopback{
		cfg:   cfg,
		links: make(map[[2]topology.Node]chan loopQueued),
		done:  make(chan struct{}),
	}
	n := cfg.Graph.N()
	lb.eps = make([]*loopEndpoint, n)
	for v := 0; v < n; v++ {
		lb.eps[v] = &loopEndpoint{
			mesh:  lb,
			self:  topology.Node(v),
			inbox: make(chan []byte, queueLen),
		}
	}
	for _, a := range cfg.Graph.Arcs() {
		ch := make(chan loopQueued, queueLen)
		lb.links[[2]topology.Node{a.From, a.To}] = ch
		lb.wg.Add(1)
		go lb.runLink(ch, lb.eps[a.To])
	}
	return lb, nil
}

// runLink drains one directed link in FIFO order, holding each frame
// until its delivery time. Because release times are assigned in send
// order from a monotonic clock plus non-decreasing delays only when the
// filter says so, per-link ordering matches the simulator's. One timer,
// made when the first frame must wait, serves the whole link: it is
// Reset only after its previous fire was received, so no stale fire
// is ever pending.
func (lb *Loopback) runLink(ch chan loopQueued, dst *loopEndpoint) {
	defer lb.wg.Done()
	var hold *time.Timer
	defer func() {
		if hold != nil {
			hold.Stop()
		}
	}()
	for {
		select {
		case <-lb.done:
			return
		case q := <-ch:
			if wait := time.Until(q.after); wait > 0 {
				if hold == nil {
					hold = time.NewTimer(wait)
				} else {
					hold.Reset(wait)
				}
				select {
				case <-hold.C:
				case <-lb.done:
					return
				}
			}
			select {
			case dst.inbox <- q.body:
				atomic.AddInt64(&dst.stats.Received, 1)
			default:
				atomic.AddInt64(&dst.stats.DroppedRx, 1)
			}
		}
	}
}

// Endpoint returns node v's attachment.
func (lb *Loopback) Endpoint(v topology.Node) (Endpoint, error) {
	if int(v) < 0 || int(v) >= len(lb.eps) {
		return nil, fmt.Errorf("transport: node %d outside [0,%d)", v, len(lb.eps))
	}
	return lb.eps[v], nil
}

// Close stops all link goroutines and closes every inbox.
func (lb *Loopback) Close() error {
	if lb.closed.Swap(true) {
		return nil
	}
	close(lb.done)
	lb.wg.Wait()
	for _, ep := range lb.eps {
		close(ep.inbox)
	}
	return nil
}

type loopEndpoint struct {
	mesh  *Loopback
	self  topology.Node
	inbox chan []byte
	stats EndpointStats
}

func (e *loopEndpoint) Recv() <-chan []byte         { return e.inbox }
func (e *loopEndpoint) Close() error                { return nil }
func (e *loopEndpoint) PeerDown(topology.Node) bool { return false }

func (e *loopEndpoint) Stats() EndpointStats {
	return EndpointStats{
		Sent:       atomic.LoadInt64(&e.stats.Sent),
		Received:   atomic.LoadInt64(&e.stats.Received),
		SendErrors: atomic.LoadInt64(&e.stats.SendErrors),
		DroppedRx:  atomic.LoadInt64(&e.stats.DroppedRx),
	}
}

func (e *loopEndpoint) Send(to topology.Node, f *Frame) error {
	lb := e.mesh
	if lb.closed.Load() {
		atomic.AddInt64(&e.stats.SendErrors, 1)
		return fmt.Errorf("transport: loopback closed")
	}
	if err := adjacency(lb.cfg.Graph, e.self, to); err != nil {
		atomic.AddInt64(&e.stats.SendErrors, 1)
		return err
	}
	body, err := EncodeFrame(f)
	if err != nil {
		atomic.AddInt64(&e.stats.SendErrors, 1)
		return err
	}
	delay := lb.cfg.Latency
	copies := 1
	if lb.cfg.Filter != nil {
		act := lb.cfg.Filter.Filter(e.self, to, time.Since(lb.cfg.Epoch))
		if act.Drop {
			// Chaos losses count as sent: the sender cannot tell.
			atomic.AddInt64(&e.stats.Sent, 1)
			return nil
		}
		if act.Corrupt && len(body) > 0 {
			body[len(body)/2] ^= 0xFF
		}
		if act.Duplicate {
			copies = 2
		}
		delay += act.Delay
	}
	ch := lb.links[[2]topology.Node{e.self, to}]
	q := loopQueued{body: body, after: time.Now().Add(delay)}
	for i := 0; i < copies; i++ {
		select {
		case ch <- q:
		default:
			atomic.AddInt64(&e.stats.SendErrors, 1)
			return fmt.Errorf("transport: link %d->%d queue full", e.self, to)
		}
	}
	atomic.AddInt64(&e.stats.Sent, 1)
	return nil
}
