// Package campaign searches for worst-case fault placements against the
// IHC broadcast and verifies the paper's fault-tolerance bounds under an
// adversary, instead of merely sampling random plans.
//
// The searchable fault domains are single-kind placements of t elements:
// broken or noisy (payload-corrupting) links, and crash, corrupt, or
// Byzantine nodes. For each (topology, signedness, domain, kind, t)
// point the driver enumerates every placement when the space is small
// enough, falls back to seeded random sampling otherwise, grades each
// placement, and greedily shrinks any bound-violating placement to a
// 1-minimal counterexample confirmed by both the combinatorial evaluator
// (reliable.EvaluateIHC) and the timed engine grader
// (reliable.EvaluateTimed).
//
// Which bounds hold adversarially is itself the experiment's finding.
// The γ routes carrying a (source, receiver) pair's copies are
// arc-disjoint but NOT node-disjoint: an interior node lies on γ/2 of
// them (one direction of each undirected cycle), so two well-placed
// faulty nodes can cover all γ routes of some pair and the paper's
// node-count bounds do not survive adversarial *placement* — consistent
// with Maurer–Tixeuil's observation that where Byzantine nodes sit
// matters as much as how many there are. Faulty *links* are the domain
// where the bounds are exact: each undirected link carries arcs of only
// one cycle's two orientations, and the two directed routes of a pair on
// that cycle traverse complementary edge sets, so one faulty link
// touches at most one of the pair's γ copies. Hence ⌈γ/2⌉−1 noisy links
// are always survived unsigned (intact copies outnumber corrupted ones),
// γ−1 signed (at least one intact copy survives), and both bounds are
// tight — the campaign finds and shrinks violations at exactly t+1.
package campaign

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/reliable"
	"ihc/internal/topology"
)

// Domain selects what kind of element a placement consists of.
type Domain int

const (
	// DomainLinks places faulty undirected links (indices into
	// Graph.Edges()).
	DomainLinks Domain = iota
	// DomainNodes places faulty nodes (node ids). Faulty nodes are
	// excluded from the graded pairs, as in reliable.EvaluateIHC.
	DomainNodes
)

func (d Domain) String() string {
	switch d {
	case DomainLinks:
		return "links"
	case DomainNodes:
		return "nodes"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// Point is one adversary-search problem: find a t-element placement of
// like-kind faults that breaks delivery on this topology.
type Point struct {
	Topo   string // display name (defaults to the graph's name)
	X      *core.IHC
	Signed bool
	Domain Domain
	// Kind interprets the elements. For DomainNodes any of Crash,
	// Corrupt, Byzantine. For DomainLinks: Crash means broken (copies
	// lost), Corrupt means noisy (copies delivered corrupted).
	Kind fault.Kind
	T    int
	Seed int64 // drives Byzantine coins and the sampling fallback
}

func (pt Point) name() string {
	if pt.Topo != "" {
		return pt.Topo
	}
	return pt.X.Graph().Name()
}

// grader grades placements structurally, without materializing routes or
// copies: the fate of the copy a pair exchanges over one directed cycle
// is Lost if any drop-acting fault sits strictly upstream of the
// receiver, else Corrupted if any corrupt-acting fault does, else Intact
// — fates are order-free along a route, so cyclic-position arithmetic
// over the placement's few elements replaces the O(N) route walk, and a
// full grade costs O(N²·γ·t). Agreement with reliable.EvaluateIHC is
// pinned by tests and spot-checked during campaign runs.
type grader struct {
	x       *core.IHC
	n       int
	gamma   int
	seed    int64
	pos     [][]int32 // pos[j][v] = position of v on directed cycle j
	edges   []topology.Edge
	edgeIdx map[topology.Edge]int
	// edgePos[j][e] = p when directed cycle j traverses edge e as the arc
	// cycle[p]→cycle[p+1], else -1. Each undirected edge belongs to one
	// undirected HC, hence to exactly two directed cycles (its two
	// orientations).
	edgePos [][]int32
}

func newGrader(x *core.IHC, seed int64) *grader {
	g := x.Graph()
	gr := &grader{x: x, n: g.N(), gamma: x.Gamma(), seed: seed, edges: g.Edges()}
	gr.edgeIdx = make(map[topology.Edge]int, len(gr.edges))
	edgeIdx := gr.edgeIdx
	for i, e := range gr.edges {
		edgeIdx[e] = i
	}
	for j := 0; j < gr.gamma; j++ {
		c := x.DirectedCycle(j)
		pos := make([]int32, gr.n)
		for p, v := range c {
			pos[v] = int32(p)
		}
		ep := make([]int32, len(gr.edges))
		for i := range ep {
			ep[i] = -1
		}
		for p := 0; p < gr.n; p++ {
			e := topology.NewEdge(c[p], c[(p+1)%gr.n])
			ep[edgeIdx[e]] = int32(p)
		}
		gr.pos = append(gr.pos, pos)
		gr.edgePos = append(gr.edgePos, ep)
	}
	return gr
}

// pairCopies returns how many of the pair's γ copies arrive intact and
// how many corrupted under the placement (the rest are lost).
func (gr *grader) pairCopies(elems []int, domain Domain, kind fault.Kind, s, r int) (intact, corrupted int) {
	n := int32(gr.n)
	for j := 0; j < gr.gamma; j++ {
		pos := gr.pos[j]
		ps := pos[s]
		d := pos[r] - ps
		if d < 0 {
			d += n
		}
		lost, tainted := false, false
		switch domain {
		case DomainLinks:
			ep := gr.edgePos[j]
			for _, ei := range elems {
				q := ep[ei]
				if q < 0 {
					continue
				}
				if o := (q - ps + n) % n; o < d {
					if kind == fault.Crash {
						lost = true
					} else {
						tainted = true
					}
				}
			}
		case DomainNodes:
			for _, vi := range elems {
				k := pos[vi] - ps
				if k < 0 {
					k += n
				}
				if k <= 0 || k >= d {
					continue // source and receiver relay nothing here
				}
				switch kind {
				case fault.Crash:
					lost = true
				case fault.Corrupt:
					tainted = true
				case fault.Byzantine:
					switch fault.ByzantineFate(gr.seed, topology.Node(vi), j, int(k)) {
					case fault.Lost:
						lost = true
					case fault.Corrupted:
						tainted = true
					}
				}
			}
		}
		switch {
		case lost:
		case tainted:
			corrupted++
		default:
			intact++
		}
	}
	return intact, corrupted
}

// grade evaluates the placement over every graded ordered pair. All
// corrupted copies of one message carry the same payload
// (reliable.CorruptPayload is deterministic), so the unsigned plurality
// vote reduces to comparing the intact and corrupted counts; the signed
// vote needs one intact copy, since corrupted copies fail MAC
// verification.
func (gr *grader) grade(elems []int, domain Domain, kind fault.Kind, signed bool) reliable.Outcome {
	var faulty []bool
	if domain == DomainNodes {
		faulty = make([]bool, gr.n)
		for _, v := range elems {
			faulty[v] = true
		}
	}
	var out reliable.Outcome
	for r := 0; r < gr.n; r++ {
		if faulty != nil && faulty[r] {
			continue
		}
		for s := 0; s < gr.n; s++ {
			if s == r || (faulty != nil && faulty[s]) {
				continue
			}
			out.Pairs++
			i, c := gr.pairCopies(elems, domain, kind, s, r)
			if signed {
				if i >= 1 {
					out.Correct++
				} else {
					out.Missing++
				}
				continue
			}
			switch {
			case i > c:
				out.Correct++
			case c > i:
				out.Wrong++
			default:
				out.Missing++
			}
		}
	}
	return out
}

// violates is the campaign's failure predicate: any graded pair that did
// not decide on the true payload.
func violates(o reliable.Outcome) bool { return o.Wrong > 0 || o.Missing > 0 }

// buildPlan materializes a placement as a static fault.TemporalPlan,
// seeded with seed: elems index edges (DomainLinks: broken for Crash,
// noisy for any other kind) or name nodes (DomainNodes). It is the one
// way a campaign placement becomes a plan — for the cross-check against
// reliable.EvaluateIHC, the timed confirmation and the repaired grade.
func buildPlan(edges []topology.Edge, elems []int, domain Domain, kind fault.Kind, seed int64) *fault.TemporalPlan {
	p := &fault.TemporalPlan{Seed: seed}
	for _, el := range elems {
		if domain == DomainNodes {
			p.Nodes = append(p.Nodes, fault.NodeFault{Node: topology.Node(el), Kind: kind})
			continue
		}
		e := edges[el]
		p.Links = append(p.Links, fault.LinkFault{U: e.U, V: e.V, Until: fault.Forever, Corrupt: kind != fault.Crash})
	}
	return p
}

// describe renders a placement for reports.
func (gr *grader) describe(elems []int, domain Domain) []string {
	out := make([]string, len(elems))
	for i, el := range elems {
		if domain == DomainLinks {
			e := gr.edges[el]
			out[i] = fmt.Sprintf("{%d,%d}", e.U, e.V)
		} else {
			out[i] = fmt.Sprintf("%d", el)
		}
	}
	return out
}
