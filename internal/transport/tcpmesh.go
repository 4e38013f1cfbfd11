package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ihc/internal/topology"
)

// dialTimeout bounds each dial attempt and each frame write.
const dialTimeout = time.Second

// TCPConfig shapes one node's real-socket attachment to the mesh.
type TCPConfig struct {
	Self  topology.Node
	Graph *topology.Graph
	// Listener accepts peer connections; Close closes it. Callers bind
	// it first, so every address — and every chaos proxy in front of
	// one — is known before any node starts.
	Listener net.Listener
	// Peers maps each graph neighbor to its dial address. Addresses
	// normally point at the peer's listener; the chaos harness points
	// them at per-link fault proxies instead.
	Peers map[topology.Node]string
}

// TCPNode is the tcpmesh Endpoint: one node's live attachment, with a
// listener for inbound peers and, per outbound neighbor, a lazily
// dialed, automatically reconnecting connection behind a circuit
// breaker. Frames that cannot be delivered are dropped, never blocked
// on — the wall-clock repair layer is what restores reliability.
type TCPNode struct {
	cfg   TCPConfig
	ln    net.Listener
	inbox chan []byte
	peers map[topology.Node]*tcpPeer
	stats EndpointStats

	mu     sync.Mutex // guards conns
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	done   chan struct{}
	closed atomic.Bool
}

type tcpPeer struct {
	node    topology.Node
	addr    string
	queue   chan []byte
	breaker *Breaker
	backoff *Backoff
	everUp  bool
}

// NewTCP binds the listener and starts the accept loop plus one writer
// goroutine per neighbor. Connections are dialed on first send.
func NewTCP(cfg TCPConfig) (*TCPNode, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("transport: tcp mesh requires a graph")
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= cfg.Graph.N() {
		return nil, fmt.Errorf("transport: self %d outside graph %s", cfg.Self, cfg.Graph.Name())
	}
	if cfg.Listener == nil {
		return nil, fmt.Errorf("transport: tcp mesh requires a listener")
	}
	for _, nb := range cfg.Graph.Neighbors(cfg.Self) {
		if _, ok := cfg.Peers[nb]; !ok {
			return nil, fmt.Errorf("transport: no address for neighbor %d of %d", nb, cfg.Self)
		}
	}
	n := &TCPNode{
		cfg:   cfg,
		ln:    cfg.Listener,
		inbox: make(chan []byte, queueLen),
		peers: make(map[topology.Node]*tcpPeer),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	for _, nb := range cfg.Graph.Neighbors(cfg.Self) {
		p := &tcpPeer{
			node:    nb,
			addr:    cfg.Peers[nb],
			queue:   make(chan []byte, queueLen),
			breaker: NewBreaker(),
			// Every arc redials on BackoffConfig's defaults, its
			// jitter seeded by the arc alone.
			backoff: NewBackoff(BackoffConfig{Seed: int64(cfg.Self)*int64(cfg.Graph.N()) + int64(nb) + 1}),
		}
		n.peers[nb] = p
		n.wg.Add(1)
		go n.runWriter(p)
	}
	n.wg.Add(1)
	go n.runAccept()
	return n, nil
}

// Addr returns the listener's bound address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

func (n *TCPNode) Recv() <-chan []byte { return n.inbox }

// PeerDown reports whether the neighbor's circuit breaker is refusing
// traffic (open with the cooldown still running). Once the cooldown
// elapses the peer reads as up again so the next send can probe it.
func (n *TCPNode) PeerDown(to topology.Node) bool {
	p, ok := n.peers[to]
	return ok && !p.breaker.Admittable()
}

func (n *TCPNode) Stats() EndpointStats {
	return EndpointStats{
		Sent:       atomic.LoadInt64(&n.stats.Sent),
		Received:   atomic.LoadInt64(&n.stats.Received),
		SendErrors: atomic.LoadInt64(&n.stats.SendErrors),
		DroppedRx:  atomic.LoadInt64(&n.stats.DroppedRx),
		Reconnects: atomic.LoadInt64(&n.stats.Reconnects),
		DialFails:  atomic.LoadInt64(&n.stats.DialFails),
	}
}

// Send encodes f and queues it toward neighbor `to`. It refuses
// immediately — without queueing — when the peer's breaker is open, so
// a crashed neighbor costs callers nothing per attempt.
func (n *TCPNode) Send(to topology.Node, f *Frame) error {
	if n.closed.Load() {
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return fmt.Errorf("transport: endpoint closed")
	}
	if err := adjacency(n.cfg.Graph, n.cfg.Self, to); err != nil {
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return err
	}
	p := n.peers[to]
	if !p.breaker.Admittable() {
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return &PeerDownError{Peer: to}
	}
	body, err := EncodeFrame(f)
	if err != nil {
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return err
	}
	select {
	case p.queue <- body:
		atomic.AddInt64(&n.stats.Sent, 1)
		return nil
	default:
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return fmt.Errorf("transport: queue to peer %d full", to)
	}
}

// Close shuts the listener, all connections, and all goroutines, then
// closes the Recv channel.
func (n *TCPNode) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	close(n.done)
	n.ln.Close()
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	close(n.inbox)
	return nil
}

func (n *TCPNode) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *TCPNode) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
	c.Close()
}

func (n *TCPNode) runAccept() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.track(c) {
			c.Close()
			return
		}
		n.wg.Add(1)
		go n.runReader(c)
	}
}

// runReader drains one inbound connection, surfacing raw frame bodies
// on the shared inbox. Oversized or short-read records end the
// connection; the peer's writer will reconnect.
func (n *TCPNode) runReader(c net.Conn) {
	defer n.wg.Done()
	defer n.untrack(c)
	for {
		body, err := ReadFrame(c)
		if err != nil {
			return
		}
		select {
		case n.inbox <- body:
			atomic.AddInt64(&n.stats.Received, 1)
		default:
			atomic.AddInt64(&n.stats.DroppedRx, 1)
		}
	}
}

// runWriter owns one neighbor's outbound connection: it lazily dials
// with jittered exponential backoff behind the circuit breaker, writes
// queued frames in order, and on any write error abandons the
// connection and re-dials. A frame that fails to write is dropped (at-
// most-once), counted in SendErrors; reliability is the repair layer's
// job.
func (n *TCPNode) runWriter(p *tcpPeer) {
	defer n.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			n.untrack(conn)
		}
	}()
	for {
		var body []byte
		select {
		case <-n.done:
			return
		case body = <-p.queue:
		}
		if conn == nil {
			conn = n.dialPeer(p)
			if conn == nil {
				atomic.AddInt64(&n.stats.SendErrors, 1)
				continue // frame dropped; done may also have fired
			}
		}
		conn.SetWriteDeadline(time.Now().Add(dialTimeout))
		if err := WriteFrame(conn, body); err != nil {
			n.untrack(conn)
			conn = nil
			p.breaker.Failure()
			atomic.AddInt64(&n.stats.SendErrors, 1)
			continue
		}
		p.breaker.Success()
	}
}

// dialPeer attempts to establish p's connection, sleeping the backoff
// between failures, until it succeeds, the breaker trips open, or the
// node closes. Returns nil when giving up on this frame.
func (n *TCPNode) dialPeer(p *tcpPeer) net.Conn {
	for {
		select {
		case <-n.done:
			return nil
		default:
		}
		if !p.breaker.Allow() {
			// Open breaker: give up on this frame; Send refuses
			// new traffic until the cooldown admits a probe.
			return nil
		}
		c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
		if err == nil {
			if !n.track(c) {
				c.Close()
				return nil
			}
			p.breaker.Success()
			p.backoff.Reset()
			if p.everUp {
				atomic.AddInt64(&n.stats.Reconnects, 1)
			}
			p.everUp = true
			return c
		}
		p.breaker.Failure()
		atomic.AddInt64(&n.stats.DialFails, 1)
		if p.breaker.State() == BreakerOpen {
			return nil
		}
		select {
		case <-n.done:
			return nil
		case <-time.After(p.backoff.Next()):
		}
	}
}
