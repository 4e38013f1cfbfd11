package fault

import (
	"fmt"
	"math"

	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Forever is a window end meaning "never recovers".
const Forever = simnet.Time(math.MaxInt64)

// NodeFault is a node whose failure behaviour switches on at a simulated
// time: before At the node relays faithfully, from At on it behaves as
// Kind. At = 0 reproduces a statically faulty node.
type NodeFault struct {
	Node topology.Node
	Kind Kind
	At   simnet.Time
}

// LinkFault is an undirected link that misbehaves during the half-open
// window [From, Until): copies whose header departs across it inside the
// window are lost (Corrupt == false) or payload-corrupted
// (Corrupt == true). Until = Forever models a link that never recovers;
// a finite Until models repair. Several windows may target one link.
type LinkFault struct {
	U, V    topology.Node
	From    simnet.Time
	Until   simnet.Time
	Corrupt bool
}

// TemporalPlan is a fault plan over simulated time, executed by the simnet
// engine through a compiled Injector rather than combinatorially. The
// zero value is fault-free.
type TemporalPlan struct {
	Nodes []NodeFault
	Links []LinkFault
	Seed  int64 // drives Byzantine coin flips, same formula as Plan.TraceRoute
}

// FromStatic lifts a combinatorial Plan into the temporal model: every
// faulty node is faulty from time 0, every broken or noisy link is down
// for all time. Grading a static plan through the engine with
// FromStatic(p).Compile(g) must agree exactly with TraceRoute-based
// grading of p — the injector's per-hop decisions use the same Byzantine
// coin and the same precedence (loss dominates corruption).
func FromStatic(p *Plan) *TemporalPlan {
	tp := &TemporalPlan{}
	if p == nil {
		return tp
	}
	tp.Seed = p.Seed
	for v, k := range p.Nodes {
		if k == Healthy {
			continue
		}
		tp.Nodes = append(tp.Nodes, NodeFault{Node: v, Kind: k})
	}
	for e, broken := range p.Links {
		if broken {
			tp.Links = append(tp.Links, LinkFault{U: e.U, V: e.V, Until: Forever})
		}
	}
	for e, noisy := range p.Noisy {
		if noisy {
			tp.Links = append(tp.Links, LinkFault{U: e.U, V: e.V, Until: Forever, Corrupt: true})
		}
	}
	return tp
}

// Validate checks the plan against a concrete graph: nodes in [0, N),
// links that are edges of g, non-negative activation times, and non-empty
// windows. A node may appear at most once (two activation times for one
// node would make the compiled behaviour order-dependent).
func (tp *TemporalPlan) Validate(g *topology.Graph) error {
	if tp == nil {
		return nil
	}
	seen := make(map[topology.Node]bool, len(tp.Nodes))
	for _, nf := range tp.Nodes {
		if nf.Node < 0 || int(nf.Node) >= g.N() {
			return fmt.Errorf("fault: temporal plan names node %d outside %s (N=%d)", nf.Node, g.Name(), g.N())
		}
		if seen[nf.Node] {
			return fmt.Errorf("fault: temporal plan names node %d twice", nf.Node)
		}
		seen[nf.Node] = true
		if nf.At < 0 {
			return fmt.Errorf("fault: node %d has negative activation time %d", nf.Node, nf.At)
		}
	}
	for _, lf := range tp.Links {
		if !g.HasEdge(lf.U, lf.V) {
			return fmt.Errorf("fault: temporal plan names link {%d,%d} that is not an edge of %s", lf.U, lf.V, g.Name())
		}
		if lf.From < 0 || lf.From >= lf.Until {
			return fmt.Errorf("fault: link {%d,%d} has empty or negative window [%d,%d)", lf.U, lf.V, lf.From, lf.Until)
		}
	}
	return nil
}

// linkWindow is a compiled link-fault interval as one endpoint sees it:
// the link to peer misbehaves during [from, until).
type linkWindow struct {
	peer        topology.Node
	from, until simnet.Time
	corrupt     bool
}

// Injector is a TemporalPlan compiled against a graph, implementing
// simnet.FaultHook. Node state is dense (one kind and one activation time
// per node), so the common all-nodes-healthy-links-only and
// all-links-healthy-nodes-only plans cost a couple of array reads per
// hop. Link windows are listed per node, each under both of its link's
// endpoints, so a hop scans only the few windows at its relaying node.
type Injector struct {
	seed  int64
	kind  []Kind
	at    []simnet.Time
	links [][]linkWindow // per node; nil when the plan has no link faults
}

// Compile validates tp against g and builds the engine hook.
func (tp *TemporalPlan) Compile(g *topology.Graph) (*Injector, error) {
	if err := tp.Validate(g); err != nil {
		return nil, err
	}
	in := &Injector{
		kind: make([]Kind, g.N()),
		at:   make([]simnet.Time, g.N()),
	}
	if tp == nil {
		return in, nil
	}
	in.seed = tp.Seed
	for _, nf := range tp.Nodes {
		in.kind[nf.Node] = nf.Kind
		in.at[nf.Node] = nf.At
	}
	if len(tp.Links) > 0 {
		in.links = make([][]linkWindow, g.N())
		for _, lf := range tp.Links {
			in.links[lf.U] = append(in.links[lf.U], linkWindow{lf.V, lf.From, lf.Until, lf.Corrupt})
			in.links[lf.V] = append(in.links[lf.V], linkWindow{lf.U, lf.From, lf.Until, lf.Corrupt})
		}
	}
	return in, nil
}

// Relay implements simnet.FaultHook with the same semantics TraceRoute
// applies combinatorially: the relaying node's fault (only for hop >= 1 —
// a faulty *source* is the grader's concern, it sends wrong payloads
// rather than mis-relaying) composes with the outgoing link's state, and
// loss dominates corruption within a hop. The Byzantine coin is the
// TraceRoute formula with k = hop, so a statically-lifted plan makes
// bitwise-identical decisions in both graders.
func (in *Injector) Relay(id simnet.PacketID, hop int, from, to topology.Node, depart simnet.Time) simnet.FaultAction {
	act := simnet.FaultNone
	if hop >= 1 {
		if k := in.kind[from]; k != Healthy && depart >= in.at[from] {
			switch k {
			case Crash:
				return simnet.FaultDrop
			case Corrupt:
				act = simnet.FaultCorrupt
			case Byzantine:
				h := uint64(in.seed) ^ uint64(from)*2654435761 ^ uint64(id.Channel)*40503 ^ uint64(hop)*97
				switch h % 3 {
				case 0:
					return simnet.FaultDrop
				case 1:
					act = simnet.FaultCorrupt
				}
			}
		}
	}
	if in.links != nil {
		for _, w := range in.links[from] {
			if w.peer == to && depart >= w.from && depart < w.until {
				if !w.corrupt {
					return simnet.FaultDrop
				}
				act = simnet.FaultCorrupt
			}
		}
	}
	return act
}
