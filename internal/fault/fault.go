// Package fault defines the fault models used to exercise the *reliable*
// part of ATA reliable broadcast: Byzantine processors that may corrupt,
// drop, or differently retransmit messages they relay, crashed
// processors, and broken or noisy links. One plan type, TemporalPlan,
// places them over simulated time. The engine executes a plan through
// its compiled Injector (inject.go); TraceRoute propagates a static
// plan's fates along a route combinatorially — the earliest faulty
// intermediate node (or link) on the prefix decides — and is the
// independent reference the Injector is checked against.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Kind classifies a node's failure behaviour.
type Kind int

const (
	// Healthy nodes relay faithfully.
	Healthy Kind = iota
	// Crash nodes stop relaying entirely: every copy that must pass
	// through them dies there.
	Crash
	// Corrupt nodes alter the payload of every packet they relay
	// (detectable with signed messages, harmful without).
	Corrupt
	// Byzantine nodes behave arbitrarily: per relayed copy they
	// deterministically-pseudorandomly either drop it, corrupt it, or
	// pass it through (ByzantineFate); as sources they are two-faced,
	// sending different payloads on different channels.
	Byzantine
)

func (k Kind) String() string {
	switch k {
	case Healthy:
		return "healthy"
	case Crash:
		return "crash"
	case Corrupt:
		return "corrupt"
	case Byzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Forever is a window end meaning "never recovers".
const Forever = simnet.Time(math.MaxInt64)

// NodeFault is a node whose failure behaviour switches on at a simulated
// time: before At the node relays faithfully, from At on it behaves as
// Kind. At = 0 is a statically faulty node.
type NodeFault struct {
	Node topology.Node
	Kind Kind
	At   simnet.Time
}

// LinkFault is an undirected link that misbehaves during the half-open
// window [From, Until): copies whose header departs across it inside the
// window are lost (Corrupt == false) or payload-corrupted
// (Corrupt == true). Until = Forever models a link that never recovers;
// a finite Until models repair. Several windows may target one link; a
// copy inside both a loss and a corrupt window is lost (loss dominates).
//
// A corrupt link is the link-level analogue of a Corrupt node, and the
// adversary model under which the paper's bounds are exact: the γ
// routes of a (source, receiver) pair are arc-disjoint, so each noisy
// link taints at most one of the pair's copies, whereas an interior
// *node* sits on γ/2 of them.
type LinkFault struct {
	U, V    topology.Node
	From    simnet.Time
	Until   simnet.Time
	Corrupt bool
}

// TemporalPlan is the fault plan: node faults with activation times and
// link windows, plus the seed of the Byzantine coin. A static placement
// is a plan whose node faults all start at 0 and whose link windows are
// all [0, Forever). The zero value is fault-free.
type TemporalPlan struct {
	Nodes []NodeFault
	Links []LinkFault
	Seed  int64 // drives Byzantine coin flips (ByzantineFate)
}

// Validate checks the plan against a concrete graph: nodes in [0, N),
// links that are edges of g, non-negative activation times, and non-empty
// windows. A node may appear at most once (two activation times for one
// node would make the compiled behaviour order-dependent). Every entry
// point that accepts a plan rejects an invalid one: a route never meets
// a phantom fault, so a typo would otherwise grade as vacuously healthy.
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

// ValidateStatic is Validate for graders without a clock: it also
// rejects a timed entry — a node fault with At > 0 or a link window
// other than [0, Forever) — instead of guessing what it would do.
func (tp *TemporalPlan) ValidateStatic(g *topology.Graph) error {
	if err := tp.Validate(g); err != nil || tp == nil {
		return err
	}
	for _, nf := range tp.Nodes {
		if nf.At != 0 {
			return fmt.Errorf("fault: node %d activates at %d, but a static plan has no clock", nf.Node, nf.At)
		}
	}
	for _, lf := range tp.Links {
		if lf.From != 0 || lf.Until != Forever {
			return fmt.Errorf("fault: link {%d,%d} fails over [%d,%d), but a static plan has no clock", lf.U, lf.V, lf.From, lf.Until)
		}
	}
	return nil
}

// FaultyNodes returns the plan's non-healthy nodes in increasing order.
func (tp *TemporalPlan) FaultyNodes() []topology.Node {
	var out []topology.Node
	for _, nf := range tp.Nodes {
		if nf.Kind != Healthy {
			out = append(out, nf.Node)
		}
	}
	slices.Sort(out)
	return out
}

// RandomNodeFaults returns a static plan with t distinct faulty nodes of
// the given kind, drawn deterministically from seed, chosen among nodes
// 0..n-1 excluding the nodes in exclude (e.g., a source/receiver pair
// whose correctness is under study). It errors when t faults cannot fit
// in the n-len(exclude) eligible nodes.
func RandomNodeFaults(n, t int, kind Kind, seed int64, exclude ...topology.Node) (*TemporalPlan, error) {
	if t < 0 || t > n-len(exclude) {
		return nil, fmt.Errorf("fault: cannot place %d faults in %d nodes excluding %d", t, n, len(exclude))
	}
	p := &TemporalPlan{Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[topology.Node]bool, len(exclude)+t)
	for _, v := range exclude {
		taken[v] = true
	}
	for len(p.Nodes) < t {
		v := topology.Node(rng.Intn(n))
		if taken[v] {
			continue
		}
		taken[v] = true
		p.Nodes = append(p.Nodes, NodeFault{Node: v, Kind: kind})
	}
	return p, nil
}

// CopyFate describes what happened to one tee copy. The fates are
// ordered by severity, so a copy's fate along a route is the maximum of
// what it met.
type CopyFate int

const (
	// Delivered intact.
	Intact CopyFate = iota
	// Delivered with corrupted payload.
	Corrupted
	// Never arrived.
	Lost
)

func (f CopyFate) String() string {
	switch f {
	case Intact:
		return "intact"
	case Corrupted:
		return "corrupted"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("CopyFate(%d)", int(f))
	}
}

// ByzantineFate is the Byzantine coin: what Byzantine node v does to
// the copy of channel it relays at route position (hop) k, for a plan
// seeded with seed — Lost, Corrupted or Intact.
func ByzantineFate(seed int64, v topology.Node, channel, k int) CopyFate {
	switch (uint64(seed) ^ uint64(v)*2654435761 ^ uint64(channel)*40503 ^ uint64(k)*97) % 3 {
	case 0:
		return Lost
	case 1:
		return Corrupted
	}
	return Intact
}

// TraceRoute computes, for each position k >= 1 of the route, the fate of
// the tee copy received by route[k], reading the plan as static: every
// node fault is active and every link window open (callers reject timed
// plans first, with ValidateStatic). A crash or drop at an intermediate
// node (or a broken link) kills the copy for that node and everything
// downstream; corruption taints everything downstream. The source's own
// fault kind is not considered here — a faulty source is handled by the
// caller (two-faced payload selection). It scans the plan's entries per
// hop and shares no code with the Injector but the Byzantine coin.
func (tp *TemporalPlan) TraceRoute(route []topology.Node, channel int) []CopyFate {
	if tp == nil {
		tp = &TemporalPlan{}
	}
	fates := make([]CopyFate, len(route))
	state := Intact
	for k := 1; k < len(route); k++ {
		if state != Lost {
			state = max(state, tp.linkFate(route[k-1], route[k]))
		}
		// The copy reaches route[k] in the current state; the node's own
		// fault affects only what it relays onward.
		fates[k] = state
		if state != Lost && k+1 < len(route) {
			state = max(state, tp.nodeFate(route[k], channel, k))
		}
	}
	return fates
}

// linkFate is what the link {u, v} does to a copy crossing it.
func (tp *TemporalPlan) linkFate(u, v topology.Node) CopyFate {
	f := Intact
	for _, lf := range tp.Links {
		if lf.U == u && lf.V == v || lf.U == v && lf.V == u {
			if !lf.Corrupt {
				return Lost
			}
			f = Corrupted
		}
	}
	return f
}

// nodeFate is what node v does to the copy of channel it relays at route
// position k.
func (tp *TemporalPlan) nodeFate(v topology.Node, channel, k int) CopyFate {
	for _, nf := range tp.Nodes {
		if nf.Node != v {
			continue
		}
		switch nf.Kind {
		case Crash:
			return Lost
		case Corrupt:
			return Corrupted
		case Byzantine:
			return ByzantineFate(tp.Seed, v, channel, k)
		}
		return Intact
	}
	return Intact
}
