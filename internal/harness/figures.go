package harness

import (
	"fmt"

	"ihc/internal/baseline/ks"
	"ihc/internal/baseline/vsq"
	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
)

func init() {
	register(Experiment{ID: "fig1", Paper: "Fig. 1", Title: "Cut-through operation of a multi-flit packet", Run: runFig1})
	register(Experiment{ID: "fig3", Paper: "Figs. 2-3", Title: "Edge-disjoint Hamiltonian cycles in Q4 / SQ4", Run: runFig3})
	register(Experiment{ID: "fig5", Paper: "Figs. 4-5", Title: "C-wrapped hexagonal mesh and its three HCs", Run: runFig5})
	register(Experiment{ID: "fig6", Paper: "Fig. 6", Title: "Interleaved packet initiation pattern (η=3)", Run: runFig6})
	register(Experiment{ID: "fig7", Paper: "Fig. 7", Title: "Node architecture: all links used concurrently", Run: runFig7})
	register(Experiment{ID: "fig8", Paper: "Fig. 8", Title: "KS broadcast pattern profile on hex meshes", Run: runFig8})
	register(Experiment{ID: "fig9", Paper: "Fig. 9", Title: "VSQ broadcast pattern profile on square tori", Run: runFig9})
}

// runFig1 reproduces the Fig. 1 scenario: a packet of 10 flits spread
// across three nodes mid-flight. The trace shows the header advancing by
// α per node while the tail lags by the full transmission time.
func runFig1(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	g := topology.MustCycle(8)
	net, err := simnet.New(g, p)
	if err != nil {
		return nil, err
	}
	var hops hopLog
	if _, err := net.Run([]simnet.PacketSpec{{
		ID:    simnet.PacketID{Source: 0},
		Route: []topology.Node{0, 1, 2, 3},
		Flits: 10,
		Tee:   true,
	}}, simnet.Options{Observe: &hops}); err != nil {
		return nil, err
	}
	t := tablefmt.New("Fig. 1 — 10-flit packet cutting through nodes 1 and 2 (times in ticks)",
		"Hop", "Kind", "HeaderDeparts", "TailArrives")
	for _, hop := range hops {
		t.Addf(fmt.Sprintf("%d→%d", hop.From, hop.To), hop.Kind.String(), hop.HeaderDepart, hop.TailArrive)
	}
	t.Note("header advances α=%d per node; the 10-flit tail lags by 10α=%d — the packet is spread", p.Alpha, 10*p.Alpha)
	t.Note("across source, intermediate FIFOs, and receiver exactly as in the paper's Fig. 1")
	return []*tablefmt.Table{t}, nil
}

// hopLog is an Observer that keeps every hop in engine order.
type hopLog []simnet.HopEvent

func (l *hopLog) OnHop(h simnet.HopEvent) { *l = append(*l, h) }
func (*hopLog) OnDeliver(simnet.Delivery) {}

// renderCycles prints a decomposition with verification status.
func renderCycles(g *topology.Graph, cycles []hamilton.Cycle, cover bool) (*tablefmt.Table, error) {
	if err := hamilton.VerifyDecomposition(g, cycles, cover); err != nil {
		return nil, err
	}
	t := tablefmt.New(fmt.Sprintf("%s: %d edge-disjoint Hamiltonian cycles (verified)", g, len(cycles)),
		"HC", "Cycle")
	for i, c := range cycles {
		line := ""
		limit := len(c)
		if limit > 24 {
			limit = 24
		}
		for j := 0; j < limit; j++ {
			if j > 0 {
				line += " "
			}
			line += fmt.Sprintf("%d", c[j])
		}
		if limit < len(c) {
			line += fmt.Sprintf(" … (%d nodes)", len(c))
		}
		t.Addf(fmt.Sprintf("HC%d", i+1), line)
	}
	return t, nil
}

// runFig3 regenerates Fig. 3: the two edge-disjoint HCs of SQ4 (which is
// also Q4 redrawn as a 4x4 torus), plus the decompositions of larger
// hypercubes constructed by Theorem 1.
func runFig3(cfg Config) ([]*tablefmt.Table, error) {
	var out []*tablefmt.Table
	sq, err := hamilton.SquareTorus(4)
	if err != nil {
		return nil, err
	}
	t, err := renderCycles(topology.MustSquareTorus(4), sq, true)
	if err != nil {
		return nil, err
	}
	out = append(out, t)

	dims := []int{4, 6}
	if !cfg.Quick {
		dims = append(dims, 8, 10)
	}
	dims = append(dims, 3, 5, 7)
	sum := tablefmt.New("Theorem 1/2 — constructed hypercube decompositions (all verified)",
		"Cube", "N", "HCs", "Covers all edges")
	// Each dimension's construction and verification is independent (the
	// larger even cubes dominate the cost), so they share the pool.
	rows, err := sweep(cfg, len(dims), func(i int, _ simnet.Observer) (row, error) {
		m := dims[i]
		cycles, err := hamilton.Hypercube(m)
		if err != nil {
			return nil, err
		}
		if m%2 != 0 {
			return row{fmt.Sprintf("Q%d", m), 1 << m, len(cycles), "no (perfect matching left)"}, nil
		}
		if err := hamilton.VerifyDecomposition(topology.MustHypercube(m), cycles, true); err != nil {
			return nil, err
		}
		return row{fmt.Sprintf("Q%d", m), 1 << m, len(cycles), true}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		sum.Addf(r...)
	}
	out = append(out, sum)
	return out, nil
}

// runFig5 regenerates Figs. 4-5: the C-wrapped hex mesh structure and its
// three direction Hamiltonian cycles.
func runFig5(cfg Config) ([]*tablefmt.Table, error) {
	m := 3
	g := topology.MustHexMesh(m)
	cycles, err := hamilton.HexMesh(m)
	if err != nil {
		return nil, err
	}
	t, err := renderCycles(g, cycles, true)
	if err != nil {
		return nil, err
	}
	steps := topology.HexSteps(m)
	t.Note("H%d: N=%d, C-wrap address steps +1, +%d, +%d (each coprime with N ⇒ each direction is a HC)",
		m, g.N(), steps[1], steps[2])
	return []*tablefmt.Table{t}, nil
}

// runFig6 regenerates Fig. 6: which nodes initiate packets in which stage
// along one directed HC for η=3.
func runFig6(cfg Config) ([]*tablefmt.Table, error) {
	g := topology.MustSquareTorus(3) // 9 nodes, divisible by η=3
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		return nil, err
	}
	x, err := core.New(g, cycles)
	if err != nil {
		return nil, err
	}
	const eta = 3
	pattern, err := x.InitiationPattern(0, eta)
	if err != nil {
		return nil, err
	}
	c := x.DirectedCycle(0)
	t := tablefmt.New("Fig. 6 — nodes initiating packets in one directed HC (η=3)",
		"Position (ID_j)", "Node", "Initiates in stage")
	for i, v := range c {
		t.Addf(i, v, pattern[i])
	}
	t.Note("every η-th node along the cycle initiates in the same stage — the interleaving distance")
	return []*tablefmt.Table{t}, nil
}

// runFig7 demonstrates the Fig. 7 node architecture: a node can drive all
// of its receivers and transmitters simultaneously, so γ packets through
// one node finish as fast as one.
func runFig7(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	g := topology.MustHypercube(3) // node 0 has 3 in-links and 3 out-links
	net, err := simnet.New(g, p)
	if err != nil {
		return nil, err
	}
	// Three packets cut through node 0 simultaneously, each on its own
	// receiver/transmitter pair.
	specs := []simnet.PacketSpec{
		{ID: simnet.PacketID{Source: 1}, Route: []topology.Node{1, 0, 2}},
		{ID: simnet.PacketID{Source: 2, Channel: 1}, Route: []topology.Node{2, 0, 4}},
		{ID: simnet.PacketID{Source: 4, Channel: 2}, Route: []topology.Node{4, 0, 1}},
	}
	res, err := net.Run(specs, simnet.Options{})
	if err != nil {
		return nil, err
	}
	single := p.TauS + p.Alpha + p.PacketTime()
	t := tablefmt.New("Fig. 7 — all receivers and transmitters of one node operate concurrently",
		"Packets through node 0", "Makespan", "Single-packet time", "Contentions")
	t.Addf(len(specs), res.Finish, single, res.Contentions)
	if res.Finish != single || res.Contentions != 0 {
		return nil, fmt.Errorf("fig7: concurrent node use broken: makespan %d (single %d), %d contentions",
			res.Finish, single, res.Contentions)
	}
	t.Note("three simultaneous cut-throughs through one node cost the same as one — the HARTS-style")
	t.Note("architecture the IHC algorithm assumes (and the degree-independence of its run time)")
	return []*tablefmt.Table{t}, nil
}

// runFig8 regenerates Fig. 8's content: the per-direction KS pattern
// profile (store-and-forwards and cut-throughs on the longest path) as a
// function of hex mesh size.
func runFig8(cfg Config) ([]*tablefmt.Table, error) {
	sizes := []int{2, 3, 4, 5}
	if !cfg.Quick {
		sizes = append(sizes, 6, 7, 8)
	}
	t := tablefmt.New("Fig. 8 — KS pattern per-path profile vs paper (3 s&f + 2m-5 cut-throughs)",
		"H_m", "N", "Max chain depth (s&f)", "Paper s&f", "Max hops", "Paper hops (2m-2)")
	rows, err := sweep(cfg, len(sizes), func(i int, _ simnet.Observer) (row, error) {
		m := sizes[i]
		b := ks.MustNew(m, 0)
		depth, hops := chainProfileKS(b)
		return row{fmt.Sprintf("H%d", m), b.N, depth, 3, hops, 2*m - 2}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("reconstruction: the original pattern exists only as a figure; ours keeps the Θ(1) s&f and")
	t.Note("Θ(√N) cut-through shape that Table II's KS-ATA row relies on")
	return []*tablefmt.Table{t}, nil
}

func chainProfileKS(b *ks.Broadcast) (maxDepth, maxHops int) {
	for _, ch := range b.Chains {
		d := 1
		for parent := ch.Parent; parent >= 0; parent = b.Chains[parent].Parent {
			d++
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	for dir := 0; dir < 6; dir++ {
		for v := 1; v < b.N; v++ {
			if h := len(b.PathTo(dir, topology.Node(v))) - 1; h > maxHops {
				maxHops = h
			}
		}
	}
	return maxDepth, maxHops
}

// runFig9 regenerates Fig. 9's content for the VSQ pattern.
func runFig9(cfg Config) ([]*tablefmt.Table, error) {
	sizes := []int{3, 4, 5, 6}
	if !cfg.Quick {
		sizes = append(sizes, 8, 12, 16)
	}
	t := tablefmt.New("Fig. 9 — VSQ pattern per-path profile vs paper (3 s&f + 2√N-6 cut-throughs)",
		"SQ_m", "N", "Max chain depth (s&f)", "Paper s&f", "Max hops", "Paper hops (2m-3)")
	rows, err := sweep(cfg, len(sizes), func(i int, _ simnet.Observer) (row, error) {
		m := sizes[i]
		b := vsq.MustNew(m, 0)
		maxDepth := 0
		for _, ch := range b.Chains {
			d := 1
			for parent := ch.Parent; parent >= 0; parent = b.Chains[parent].Parent {
				d++
			}
			if d > maxDepth {
				maxDepth = d
			}
		}
		maxHops := 0
		for dir := 0; dir < 4; dir++ {
			for v := 1; v < m*m; v++ {
				if h := len(b.PathTo(dir, topology.Node(v))) - 1; h > maxHops {
					maxHops = h
				}
			}
		}
		return row{fmt.Sprintf("SQ%d", m), m * m, maxDepth, 3, maxHops, 2*m - 3}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("our explicit comb uses one fewer s&f on the tooth paths and one extra hop on the wrap leg")
	return []*tablefmt.Table{t}, nil
}
