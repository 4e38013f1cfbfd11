// Package vsq implements the VSQ reliable broadcast algorithm for
// torus-wrapped square meshes SQ_m and its serialized all-to-all variant
// VSQ-ATA (the paper's Section V-C).
//
// The broadcast sends one copy of the packet in each of the four
// directions; the four per-direction patterns are 90°-rotations of each
// other and must not interfere (no two patterns use the same directed
// link). Each pattern is a spanning tree — that is forced by the arc
// budget: four trees of N-1 arcs each fit in the 4N directed links with
// exactly one spare arc per direction — so every node receives four
// copies, one per direction.
//
// The paper's Fig. 9 gives the original pattern only graphically; this
// package uses an equivalent explicit construction with the same germane
// properties (arc-disjointness, at most 3 store-and-forward operations on
// any path, O(√N) cut-throughs). The east tree is a comb:
//
//   - ray: east along the source's row, m-1 hops (cut-through chain);
//   - teeth: north from every ray node, m-1 hops each (one redirection
//     per tooth, then cut-throughs), covering all columns except the
//     source's;
//   - wrap legs: the source's own column is reached by one extra west
//     hop from the first tooth (a second redirection).
//
// The longest path therefore has 2 store-and-forwards + 2m-4
// cut-throughs (tooth tip of the last column) or 3 store-and-forwards +
// m-2 cut-throughs (top of the source column), never exceeding the
// paper's structural bound of 3 store-and-forwards + 2√N-6 cut-throughs
// in execution time under the paper's parameter regime.
package vsq

import (
	"fmt"

	"ihc/internal/baseline/atarun"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Direction indices: 0 = east (+col), 1 = north (+row), 2 = west, 3 = south.
const (
	East = iota
	North
	West
	South
)

// step returns the (dRow, dCol) displacement of a direction.
func step(dir int) (dr, dc int) {
	switch dir {
	case East:
		return 0, 1
	case North:
		return 1, 0
	case West:
		return 0, -1
	default:
		return -1, 0
	}
}

// Chain is a cut-through chain of one direction's pattern: the head hop
// is an injection (Parent < 0) or a redirection (Parent = index of the
// chain that delivered the packet to Route[0]).
type Chain struct {
	Dir    int
	Route  []topology.Node
	Parent int
}

// Broadcast is the full VSQ schedule for one source in SQ_m.
type Broadcast struct {
	M      int
	Src    topology.Node
	Chains []Chain
	// parent[d][v]: the node that delivers direction-d's copy to v.
	parent [4][]topology.Node
}

// New computes the VSQ broadcast pattern from src in SQ_m (m >= 3).
// Out-of-range inputs are errors, not panics.
func New(m int, src topology.Node) (*Broadcast, error) {
	if m < 3 {
		return nil, fmt.Errorf("vsq: need m >= 3, got %d", m)
	}
	n := m * m
	if int(src) < 0 || int(src) >= n {
		return nil, fmt.Errorf("vsq: source %d not in SQ%d", src, m)
	}
	b := &Broadcast{M: m, Src: src}
	sr, sc := topology.TorusCoords(m, src)
	for dir := 0; dir < 4; dir++ {
		b.buildTree(dir, sr, sc)
	}
	return b, nil
}

// MustNew is New for statically known-good inputs (the
// regexp.MustCompile idiom).
func MustNew(m int, src topology.Node) *Broadcast {
	b, err := New(m, src)
	if err != nil {
		panic(err)
	}
	return b
}

// buildTree emits direction dir's comb, rotated so that "east" is dir.
// Coordinates are expressed in the rotated frame (x = along-ray, y =
// along-teeth) and mapped back through rot.
func (b *Broadcast) buildTree(dir, sr, sc int) {
	m := b.M
	par := make([]topology.Node, m*m)
	for i := range par {
		par[i] = -1
	}
	// rot maps comb-frame coordinates (x along dir, y along dir+1) to a
	// concrete torus node.
	rdr, rdc := step(dir)
	tdr, tdc := step((dir + 1) % 4)
	at := func(x, y int) topology.Node {
		return topology.TorusNode(m, sr+x*rdr+y*tdr, sc+x*rdc+y*tdc)
	}
	link := func(child, parent topology.Node) {
		if par[child] != -1 {
			panic(fmt.Sprintf("vsq: node %d covered twice in direction %d", child, dir))
		}
		par[child] = parent
	}

	// Ray: x = 1..m-1 at y = 0.
	ray := Chain{Dir: dir, Parent: -1, Route: []topology.Node{at(0, 0)}}
	for x := 1; x <= m-1; x++ {
		ray.Route = append(ray.Route, at(x, 0))
		link(at(x, 0), at(x-1, 0))
	}
	rayIdx := len(b.Chains)
	b.Chains = append(b.Chains, ray)

	// Teeth: from every ray node x = 1..m-1, y = 1..m-1.
	toothIdx := make([]int, m)
	for x := 1; x <= m-1; x++ {
		tooth := Chain{Dir: dir, Parent: rayIdx, Route: []topology.Node{at(x, 0)}}
		for y := 1; y <= m-1; y++ {
			tooth.Route = append(tooth.Route, at(x, y))
			link(at(x, y), at(x, y-1))
		}
		toothIdx[x] = len(b.Chains)
		b.Chains = append(b.Chains, tooth)
	}

	// Wrap legs: the source column (x = 0, y = 1..m-1) is reached by one
	// backward (dir+2) hop from the first tooth.
	for y := 1; y <= m-1; y++ {
		leg := Chain{Dir: dir, Parent: toothIdx[1], Route: []topology.Node{at(1, y), at(0, y)}}
		link(at(0, y), at(1, y))
		b.Chains = append(b.Chains, leg)
	}
	b.parent[dir] = par
}

// PathTo returns direction dir's delivery path from the source to v.
func (b *Broadcast) PathTo(dir int, v topology.Node) []topology.Node {
	if v == b.Src {
		return []topology.Node{b.Src}
	}
	var rev []topology.Node
	for x := v; x != b.Src; x = b.parent[dir][x] {
		if x < 0 {
			panic(fmt.Sprintf("vsq: no direction-%d path to %d", dir, v))
		}
		rev = append(rev, x)
	}
	rev = append(rev, b.Src)
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// Packets converts the chains into simulator packets; redirection chains
// depend on their parent chain's delivery at their head node.
func (b *Broadcast) Packets(start simnet.Time, seq int) []simnet.PacketSpec {
	specs := make([]simnet.PacketSpec, len(b.Chains))
	for c, ch := range b.Chains {
		specs[c] = simnet.PacketSpec{
			ID:    simnet.PacketID{Source: b.Src, Channel: c, Seq: seq},
			Route: ch.Route,
			Tee:   true,
		}
		if ch.Parent < 0 {
			specs[c].Inject = start
		} else {
			specs[c].After = []int{ch.Parent}
		}
	}
	return specs
}

// Arcs returns every directed link used by the broadcast, per direction
// pattern — used to verify the non-interference condition.
func (b *Broadcast) Arcs() [4][]topology.Arc {
	var out [4][]topology.Arc
	for _, ch := range b.Chains {
		for i := 0; i+1 < len(ch.Route); i++ {
			out[ch.Dir] = append(out[ch.Dir], topology.Arc{From: ch.Route[i], To: ch.Route[i+1]})
		}
	}
	return out
}

// ATA runs VSQ-ATA: every node of SQ_m broadcasts in turn.
func ATA(m int, p simnet.Params, opts simnet.Options) (*atarun.Result, error) {
	g, err := topology.SquareTorus(m)
	if err != nil {
		return nil, err
	}
	if _, err := New(m, 0); err != nil {
		return nil, err
	}
	gen := func(src topology.Node, start simnet.Time, seq int) []simnet.PacketSpec {
		return MustNew(m, src).Packets(start, seq)
	}
	return atarun.Sequential(g, p, gen, opts)
}
