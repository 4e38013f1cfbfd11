package fault

import (
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

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

// Link is the plan's verdict on the link from→to alone at time at:
// FaultDrop inside one of its loss windows, else FaultCorrupt inside
// one of its corrupt windows, else FaultNone. Windows are half-open,
// [From, Until). The engine's Relay and the wall-clock chaos layer
// (internal/chaos) both read link faults through it.
func (in *Injector) Link(from, to topology.Node, at simnet.Time) simnet.FaultAction {
	act := simnet.FaultNone
	if in.links == nil {
		return act
	}
	for _, w := range in.links[from] {
		if w.peer == to && at >= w.from && at < w.until {
			if !w.corrupt {
				return simnet.FaultDrop
			}
			act = simnet.FaultCorrupt
		}
	}
	return act
}

// Relay implements simnet.FaultHook with the semantics TraceRoute
// applies combinatorially: the outgoing link's verdict (Link) composes
// with the relaying node's fault — only for hop >= 1, since a faulty
// *source* is the grader's concern: it sends wrong payloads rather than
// mis-relaying — and loss dominates corruption within a hop. A
// Byzantine node flips ByzantineFate with k = hop, so a static plan
// makes bitwise-identical decisions here and in TraceRoute.
func (in *Injector) Relay(id simnet.PacketID, hop int, from, to topology.Node, depart simnet.Time) simnet.FaultAction {
	act := in.Link(from, to, depart)
	if hop < 1 || act == simnet.FaultDrop {
		return act
	}
	if k := in.kind[from]; k != Healthy && depart >= in.at[from] {
		switch k {
		case Crash:
			return simnet.FaultDrop
		case Corrupt:
			act = simnet.FaultCorrupt
		case Byzantine:
			switch ByzantineFate(in.seed, from, id.Channel, hop) {
			case Lost:
				return simnet.FaultDrop
			case Corrupted:
				act = simnet.FaultCorrupt
			}
		}
	}
	return act
}
