package repair

import (
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Route construction around diagnosed faults: NAK return paths along
// surviving directed Hamiltonian cycles, detours for single dead hops
// (edge-disjoint path candidates first, BFS fallback), and whole-route
// patching for retransmissions and subsequent stages.

// deadEdge reports whether the link {u,v} has been diagnosed dead.
func (m *Manager) deadEdge(u, v topology.Node) bool {
	a := m.arcID(u, v)
	return a >= 0 && m.dead[a]
}

// nakRoute picks the shortest surviving return path from the detector v
// to the source s: for each of the γ directed HCs, the forward segment
// v→s along that cycle, skipping segments that cross a dead link;
// falling back to BFS around dead links/nodes if every cycle segment is
// severed. Returns a fresh slice, or nil when s is unreachable.
func (m *Manager) nakRoute(v, s topology.Node) []topology.Node {
	n := m.x.N()
	bestJ, bestLen := -1, n+1
	for j := 0; j < m.x.Gamma(); j++ {
		l := (m.x.ID(j, s) - m.x.ID(j, v) + n) % n
		if l == 0 || l >= bestLen {
			continue
		}
		if m.cycleSegmentDead(j, v, l) {
			continue
		}
		bestJ, bestLen = j, l
	}
	if bestJ >= 0 {
		return m.cycleSegment(bestJ, v, bestLen)
	}
	return m.g.ShortestPathAvoiding(v, s, func(a, b topology.Node) bool {
		return m.deadEdge(a, b) || (b != s && m.deadNode[b])
	})
}

// cycleSegment returns the l-hop forward segment of directed cycle j
// starting at node v as a fresh slice.
func (m *Manager) cycleSegment(j int, v topology.Node, l int) []topology.Node {
	c := m.x.DirectedCycle(j)
	n := len(c)
	p := m.x.ID(j, v)
	out := make([]topology.Node, l+1)
	for i := 0; i <= l; i++ {
		out[i] = c[(p+i)%n]
	}
	return out
}

func (m *Manager) cycleSegmentDead(j int, v topology.Node, l int) bool {
	c := m.x.DirectedCycle(j)
	n := len(c)
	p := m.x.ID(j, v)
	for i := 0; i < l; i++ {
		if m.deadEdge(c[(p+i)%n], c[(p+i+1)%n]) {
			return true
		}
	}
	return false
}

// patched rewrites route so that no hop crosses a diagnosed-dead link,
// inserting detours while keeping every directed arc of the result
// unique (the engine rejects a route using one directed link twice).
// Returns (route, false, true) untouched when nothing on it is dead.
func (m *Manager) patched(route []topology.Node) (out []topology.Node, changed, ok bool) {
	arcs := m.routeArcs[:0]
	needs := false
	for h := 0; h+1 < len(route); h++ {
		a := m.arcID(route[h], route[h+1])
		arcs = append(arcs, a)
		needs = needs || m.dead[a]
	}
	m.routeArcs = arcs
	if !needs {
		return route, false, true
	}
	m.gen++
	for _, a := range arcs {
		m.remaining[a]++
	}
	out = make([]topology.Node, 1, len(route)+8)
	out[0] = route[0]
	for h, a := range arcs {
		m.remaining[a]--
		if !m.dead[a] && m.used[a] != m.gen {
			m.used[a] = m.gen
			out = append(out, route[h+1])
			continue
		}
		d := m.detour(route[h], route[h+1])
		if d == nil {
			for _, b := range arcs[h+1:] {
				m.remaining[b]--
			}
			return nil, true, false
		}
		for i := 1; i < len(d); i++ {
			m.used[m.arcID(d[i-1], d[i])] = m.gen
			out = append(out, d[i])
		}
	}
	return out, true, true
}

// detour finds a u→w replacement path that avoids dead links, directed
// arcs already consumed by the route being patched, and — preferably —
// arcs the rest of the original route still needs. Edge-disjoint path
// candidates (the flow decomposition of EdgeDisjointPaths) are tried
// first: at most one of them can contain any given dead link, so with
// γ ≥ 2 one usually survives; BFS handles the remainder.
func (m *Manager) detour(u, w topology.Node) []topology.Node {
	avoidFull := func(a, b topology.Node) bool {
		id := m.arcID(a, b)
		return m.dead[id] || m.used[id] == m.gen || m.remaining[id] > 0 || (b != w && m.deadNode[b])
	}
	for _, cand := range m.detourCandidates(u, w) {
		good := true
		for i := 1; i < len(cand); i++ {
			if avoidFull(cand[i-1], cand[i]) {
				good = false
				break
			}
		}
		if good {
			return cand
		}
	}
	if p := m.g.ShortestPathAvoiding(u, w, avoidFull); p != nil {
		return p
	}
	// Last resort: allow stealing arcs the original route still wants;
	// the stolen hop will itself be detoured when its turn comes.
	return m.g.ShortestPathAvoiding(u, w, func(a, b topology.Node) bool {
		id := m.arcID(a, b)
		return m.dead[id] || m.used[id] == m.gen
	})
}

// detourCandidates returns the edge-disjoint u→w paths for the arc u→w,
// computing them on the arc's first detour. The returned paths are
// shared by every later detour of the arc and must not be modified.
func (m *Manager) detourCandidates(u, w topology.Node) [][]topology.Node {
	a := m.arcID(u, w)
	if c := m.detours[a]; c != nil {
		return c
	}
	c := m.g.EdgeDisjointPathRoutes(u, w)
	if c == nil {
		c = [][]topology.Node{}
	}
	m.detours[a] = c
	return c
}

// recoveryRoutes builds the retransmission route set for an origin: the
// fully patched cyclic route when one exists, else per-destination
// shortest paths around the faults for every still-missing node.
func (m *Manager) recoveryRoutes(o *origin) [][]topology.Node {
	if full, changed, ok := m.patched(o.route); ok {
		if !changed {
			// Re-send the original route unchanged (transient loss or a
			// not-yet-diagnosed fault: this retry is the diagnosis probe).
			full = append([]topology.Node(nil), o.route...)
		}
		return [][]topology.Node{full}
	}
	return m.shortestRoutes(o)
}

// shortestRoutes returns, for every node of o's route still missing
// its copy, in route order and once each, a shortest path from the
// source that crosses no dead link and relays through no dead node; an
// unreachable node gets none. One BFS from the source serves them all:
// it reaches dead nodes, so each can be a destination, but never
// expands them. Each destination w therefore gets the path, with the
// same discovery order and parents, that its own
// ShortestPathAvoiding(src, w, deadEdge || (b != w && deadNode[b]))
// returns.
func (m *Manager) shortestRoutes(o *origin) [][]topology.Node {
	src := o.route[0]
	prev := m.bfsPrev
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := append(m.bfsQueue[:0], src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for i, v := range m.g.Neighbors(u) {
			if prev[v] >= 0 || m.dead[m.arcBase[u]+int32(i)] {
				continue
			}
			prev[v] = u
			if !m.deadNode[v] {
				queue = append(queue, v)
			}
		}
	}
	var out [][]topology.Node
	seen := make(map[topology.Node]bool, len(o.route))
	for _, w := range o.route[1:] {
		if seen[w] || o.got[w] {
			seen[w] = true
			continue
		}
		seen[w] = true
		if prev[w] < 0 {
			continue
		}
		hops := 0
		for v := w; v != src; v = prev[v] {
			hops++
		}
		p := make([]topology.Node, hops+1)
		for v, i := w, hops; i >= 0; v, i = prev[v], i-1 {
			p[i] = v
		}
		out = append(out, p)
	}
	return out
}

// PatchSpecs is the core.Config.PatchRoutes hook: before each stage is
// simulated, every route crossing a diagnosed-dead link is replaced by
// its patched copy, so subsequent stages route around the fault instead
// of retrying into it. Routes are swapped, never edited in place (they
// alias the IHC's shared backing storage).
func (m *Manager) PatchSpecs(specs []simnet.PacketSpec) {
	if m.stats.DeadLinks == 0 {
		return
	}
	for i := range specs {
		if p, changed, ok := m.patched(specs[i].Route); ok && changed {
			specs[i].Route = p
			m.stats.Detours++
		}
	}
}
