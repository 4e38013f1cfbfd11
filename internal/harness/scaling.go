package harness

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
)

func init() {
	register(Experiment{ID: "scaling", Paper: "beyond §VI", Title: "Engine scaling: IHC at Q14 / 32×32-torus sizes", Run: runScaling})
}

// scalingPoint is one large-topology run: IHC on g with η=μ, optionally
// restricted to a subset of the γ directed cycles. Restricting cycles
// scales the event count down linearly while leaving the critical path —
// and hence the Table II closed form the measurement is checked against
// — exactly unchanged (parallel cycles share no directed links, so each
// stage takes τ_S + μα + (N-2)α regardless of how many cycles run).
type scalingPoint struct {
	graph  func() *topology.Graph
	cycles []int // nil = all γ directed cycles
}

// runScaling exercises the flat-array engine at topology sizes an order
// of magnitude beyond the paper's Q10 evaluation — the hypercube and
// torus scales studied in the follow-on literature (PAPERS.md: Jung &
// Sakho's k-ary n-dimensional tori). Every point still asserts exact
// agreement with the Table II closed form and zero contentions, so this
// is a correctness experiment that happens to be a stress test: the
// rendered table reports deterministic quantities only (event counts,
// not wall-clock), keeping suite output byte-identical across worker
// counts. Throughput itself is recorded by `make bench-engine`.
func runScaling(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	eta := p.Mu

	// Quick keeps the same shape (one cycle-restricted hypercube, one
	// full torus) at sizes that stay sub-second; full runs the headline
	// Q14 (16384 nodes, one of its 14 directed cycles ≈ 2.7×10⁸ events)
	// and the complete 32×32 torus ATA.
	points := []scalingPoint{
		{graph: func() *topology.Graph { return topology.MustHypercube(8) }, cycles: []int{0}},
		{graph: func() *topology.Graph { return topology.MustSquareTorus(16) }},
	}
	if !cfg.Quick {
		points = []scalingPoint{
			{graph: func() *topology.Graph { return topology.MustHypercube(14) }, cycles: []int{0}},
			{graph: func() *topology.Graph { return topology.MustSquareTorus(32) }},
		}
	}

	t := tablefmt.New(
		fmt.Sprintf("Engine scaling — IHC beyond the paper's Q10 (η=μ=%d, exactness preserved at scale)", eta),
		"Network", "N", "Cycles run", "Injections", "Deliveries", "Events", "Measured", "Model", "Match")
	rows, err := sweep(cfg, len(points), func(i int, obs simnet.Observer) (row, error) {
		pt := points[i]
		g := pt.graph()
		x, err := newIHC(g)
		if err != nil {
			return nil, err
		}
		res, err := x.Run(core.Config{
			Eta: eta, Params: p, Cycles: pt.cycles, SkipCopies: true, Observe: obs,
		})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(res.Events)
		m := model.IHCBest(p, g.N(), eta)
		if res.Finish != m {
			return nil, fmt.Errorf("scaling: %s measured %d != model %d", g.Name(), res.Finish, m)
		}
		if res.Contentions != 0 {
			return nil, fmt.Errorf("scaling: %s had %d contentions", g.Name(), res.Contentions)
		}
		used := len(pt.cycles)
		if pt.cycles == nil {
			used = x.Gamma()
		}
		return row{g.Name(), g.N(), fmt.Sprintf("%d of %d", used, x.Gamma()),
			res.Injections, res.Deliveries, res.Events, res.Finish, m, match(res.Finish, m)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("restricting a run to a subset of cycles scales events linearly but leaves each stage's")
	t.Note("critical path — and the closed form it must match — unchanged; the full-size points push")
	t.Note("the flat-array engine ~50× past Q10's event count within one suite run")
	return []*tablefmt.Table{t}, nil
}
