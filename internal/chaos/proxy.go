package chaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ihc/internal/topology"
	"ihc/internal/transport"
)

// Proxy is a frame-aware fault proxy for one directed link of a live
// TCP cluster. The sender dials the proxy instead of the receiver; the
// proxy reads whole length-prefixed frames off the inbound connection,
// asks the Plan for a verdict per frame, and forwards the survivors —
// possibly corrupted, duplicated, or delayed — over its own connection
// to the real receiver.
//
// A partition window is enforced at the socket level, not just the
// frame level: frames in flight are dropped, live connections through
// the proxy are severed, and new connections are refused for the
// window's duration — so the sender's reconnect/backoff/breaker path
// is exercised exactly as a yanked cable would.
type Proxy struct {
	plan   *Plan
	from   topology.Node
	to     topology.Node
	target string
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewProxy starts a proxy for the directed link from→to, forwarding to
// target (the receiver's real listener). It listens on an ephemeral
// localhost port; read it back with Addr.
func NewProxy(plan *Plan, from, to topology.Node, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy %d->%d listen: %w", from, to, err)
	}
	p := &Proxy{plan: plan, from: from, to: to, target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address — what the sender's peer
// table should point at.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops the proxy and severs everything through it.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

func (p *Proxy) now() time.Duration { return time.Since(p.plan.Epoch()) }

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.plan.Partitioned(p.from, p.to, p.now()) {
			// Refuse service during the outage window: accept (the
			// listener queue is not ours to pause) but hang up
			// immediately, so the dialer sees a dead link.
			c.Close()
			continue
		}
		if !p.track(c) {
			c.Close()
			return
		}
		p.wg.Add(1)
		go p.pipe(c)
	}
}

// pipe relays one sender connection frame by frame.
func (p *Proxy) pipe(in net.Conn) {
	defer p.wg.Done()
	defer p.untrack(in)
	out, err := net.DialTimeout("tcp", p.target, time.Second)
	if err != nil {
		return
	}
	if !p.track(out) {
		out.Close()
		return
	}
	defer p.untrack(out)
	for {
		body, err := transport.ReadFrame(in)
		if err != nil {
			return
		}
		now := p.now()
		if p.plan.Partitioned(p.from, p.to, now) {
			// Entering an outage mid-connection: sever both sides so
			// the sender's breaker and reconnect logic engage.
			return
		}
		act := p.plan.Filter(p.from, p.to, now)
		if act.Drop {
			continue
		}
		if act.Corrupt && len(body) > 0 {
			body[len(body)/2] ^= 0xFF
		}
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		writes := 1
		if act.Duplicate {
			writes = 2
		}
		for i := 0; i < writes; i++ {
			if err := transport.WriteFrame(out, body); err != nil {
				return
			}
		}
	}
}

// ProxyMesh is the full set of per-directed-link proxies for one
// cluster: every arc of the graph gets its own Proxy, and Addrs
// renders, per node, the peer table pointing each neighbor through the
// right proxy.
type ProxyMesh struct {
	proxies map[[2]topology.Node]*Proxy
}

// NewProxyMesh builds a proxy per directed arc of plan's graph.
// realAddrs maps each node to its actual listener address.
func NewProxyMesh(plan *Plan, realAddrs map[topology.Node]string) (*ProxyMesh, error) {
	pm := &ProxyMesh{proxies: make(map[[2]topology.Node]*Proxy)}
	for _, a := range plan.cfg.Graph.Arcs() {
		target, ok := realAddrs[a.To]
		if !ok {
			pm.Close()
			return nil, fmt.Errorf("chaos: no real address for node %d", a.To)
		}
		px, err := NewProxy(plan, a.From, a.To, target)
		if err != nil {
			pm.Close()
			return nil, err
		}
		pm.proxies[[2]topology.Node{a.From, a.To}] = px
	}
	return pm, nil
}

// Addrs returns node v's peer table: neighbor → the v→neighbor proxy.
func (pm *ProxyMesh) Addrs(v topology.Node) map[topology.Node]string {
	out := make(map[topology.Node]string)
	for key, px := range pm.proxies {
		if key[0] == v {
			out[key[1]] = px.Addr()
		}
	}
	return out
}

// Close stops every proxy.
func (pm *ProxyMesh) Close() error {
	for _, px := range pm.proxies {
		px.Close()
	}
	return nil
}
