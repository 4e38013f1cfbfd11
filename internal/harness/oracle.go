package harness

// The oracle sweep: every point runs IHC with a live observe.Oracle
// attached and asserts the paper's runtime theorems from the raw hop
// stream — not from the engine's own counters. Points with η >= μ (and
// N mod η == 0) must verify contention-free with every copy on its
// compiled cycle; points with η < μ must make the oracle COUNT
// contention, proving the checker has teeth; η = μ = 1 points must
// finish at exactly Theorem 4's T = τ_S + (N-1)α.

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/observe"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
)

func init() {
	register(Experiment{ID: "contention", Paper: "Theorems 3 & 4",
		Title: "Live-oracle sweep: contention-freeness, FIFO occupancy, route conformance, exact finish",
		Run:   runContention})
}

// oraclePoint is one (topology, η, μ) cell of the sweep.
type oraclePoint struct {
	graph       func() *topology.Graph
	eta, mu     int
	light       bool // Light oracle (O(arcs) state) for the largest networks
	exactFinish bool // assert the closed-form finish exactly (η = μ regimes)
}

// free reports whether Theorem 3 promises this point contention-free.
func (pt oraclePoint) free(n int) bool { return pt.eta >= pt.mu && n%pt.eta == 0 }

func oraclePoints(quick bool) []oraclePoint {
	q := func(m int) func() *topology.Graph { return func() *topology.Graph { return topology.MustHypercube(m) } }
	sq := func(m int) func() *topology.Graph {
		return func() *topology.Graph { return topology.MustSquareTorus(m) }
	}
	t3 := func(d int) func() *topology.Graph {
		return func() *topology.Graph { return topology.MustTorusND(d, d, d) }
	}

	// Pass points (η >= μ): Theorem 3 regimes across all families.
	pts := []oraclePoint{
		{graph: sq(4), eta: 2, mu: 2, exactFinish: true},
		{graph: q(4), eta: 2, mu: 2, exactFinish: true},
		{graph: q(4), eta: 4, mu: 2}, // η > μ: still contention-free, no exact closed form asserted
		// Theorem 4: η = μ = 1 finishes at exactly τ_S + (N-1)α.
		{graph: q(4), eta: 1, mu: 1, exactFinish: true},
		{graph: q(5), eta: 1, mu: 1, exactFinish: true},
		{graph: q(6), eta: 1, mu: 1, exactFinish: true},
		// Fail points (η < μ): the oracle must observe contention here,
		// or the experiment errors — the checker has teeth.
		{graph: sq(4), eta: 1, mu: 2},
		{graph: sq(4), eta: 1, mu: 4},
		{graph: q(4), eta: 2, mu: 4},
	}
	if quick {
		return pts
	}
	return append(pts,
		oraclePoint{graph: sq(6), eta: 2, mu: 2, exactFinish: true},
		oraclePoint{graph: q(6), eta: 2, mu: 2, exactFinish: true},
		oraclePoint{graph: q(7), eta: 2, mu: 2, exactFinish: true},
		oraclePoint{graph: t3(4), eta: 2, mu: 2, exactFinish: true},
		// Theorem 4 at scale, Light oracle for the O(N²) sizes.
		oraclePoint{graph: q(7), eta: 1, mu: 1, exactFinish: true},
		oraclePoint{graph: q(8), eta: 1, mu: 1, exactFinish: true, light: true},
		oraclePoint{graph: q(9), eta: 1, mu: 1, exactFinish: true, light: true},
		oraclePoint{graph: q(10), eta: 1, mu: 1, exactFinish: true, light: true},
		// More η < μ teeth at larger size.
		oraclePoint{graph: q(6), eta: 1, mu: 2},
		oraclePoint{graph: t3(4), eta: 1, mu: 2},
	)
}

// runOraclePoint simulates one sweep cell with a live oracle teed onto
// the point's configured sinks and turns the verdict into a table row.
func runOraclePoint(cfg Config, pt oraclePoint, obs simnet.Observer) (row, error) {
	g := pt.graph()
	n := g.N()
	p := cfg.params()
	p.Mu = pt.mu

	cycles, err := hamilton.Decompose(g)
	if err != nil {
		return nil, err
	}
	x, err := core.New(g, cycles)
	if err != nil {
		return nil, err
	}

	free := pt.free(n)
	fin := simnet.Time(-1)
	var want simnet.Time
	if pt.exactFinish {
		want = model.IHCBest(p, n, pt.eta) // = OptimalATATime for η = μ = 1
		fin = want
	}
	copies := 0
	if free && !pt.light && n <= 64 {
		copies = x.Gamma() // full γ-edge-disjoint copy ledger on the small passes
	}
	orc, err := observe.NewOracle(observe.OracleConfig{
		X: x, Params: p, Eta: pt.eta,
		ExpectContentionFree: free,
		ExpectFinish:         fin,
		ExpectCopies:         copies,
		Light:                pt.light,
	})
	if err != nil {
		return nil, err
	}

	res, err := x.Run(core.Config{
		Eta: pt.eta, Params: p, SkipCopies: true,
		Observe: observe.Tee(obs, orc),
	})
	if err != nil {
		return nil, err
	}
	cfg.addEvents(res.Events)

	if err := orc.Finalize(); err != nil {
		return nil, fmt.Errorf("oracle on %s η=%d μ=%d: %w", g.Name(), pt.eta, pt.mu, err)
	}
	st := orc.Stats()
	if st.OverlapViolations != 0 {
		return nil, fmt.Errorf("oracle on %s η=%d μ=%d: engine let %d packets overlap on a link",
			g.Name(), pt.eta, pt.mu, st.OverlapViolations)
	}
	verdict := "contention-free"
	if free {
		if st.Contentions != 0 {
			return nil, fmt.Errorf("oracle on %s η=%d μ=%d: %d contentions despite η >= μ",
				g.Name(), pt.eta, pt.mu, st.Contentions)
		}
	} else {
		// The teeth check: an η < μ run that the oracle scores clean
		// means the checker is blind, not that the run was lucky.
		if st.Contentions == 0 {
			return nil, fmt.Errorf("oracle on %s η=%d μ=%d: no contention detected at η < μ — checker has no teeth",
				g.Name(), pt.eta, pt.mu)
		}
		if res.Contentions > 0 && st.Contentions < res.Contentions {
			return nil, fmt.Errorf("oracle on %s η=%d μ=%d: saw %d contentions, engine counted %d",
				g.Name(), pt.eta, pt.mu, st.Contentions, res.Contentions)
		}
		verdict = fmt.Sprintf("contended (%d hops)", st.Contentions)
	}
	finish := "—"
	if pt.exactFinish {
		finish = "exact"
	}
	checks := "routes+occupancy+exclusivity"
	if copies > 0 {
		checks = fmt.Sprintf("routes+occupancy+exclusivity+%d-copies", copies)
	}
	if pt.light {
		checks = "routes+exclusivity (light)"
	}
	return row{g.Name(), n, pt.eta, pt.mu, st.DataHops, verdict, st.PeakOccupancy, res.Finish, finish, checks}, nil
}

// runContention reproduces the runtime claims of Theorems 3 and 4 as a
// live verification sweep over (topology, η, μ).
func runContention(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	pts := oraclePoints(cfg.Quick)
	t := tablefmt.New(
		fmt.Sprintf("Oracle sweep — Theorems 3 & 4 verified live from the hop stream (τ_S=%d α=%d D=%d)", p.TauS, p.Alpha, p.D),
		"Network", "N", "η", "μ", "DataHops", "Theorem 3", "PeakFIFO", "Finish", "Closed form", "Checks")
	rows, err := sweep(cfg, len(pts), func(i int, obs simnet.Observer) (row, error) {
		return runOraclePoint(cfg, pts[i], obs)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("η >= μ rows must verify zero contention, ≤ μ-flit FIFOs, every copy on its compiled")
	t.Note("cycle, and (η = μ) the exact closed-form finish; η < μ rows must make the oracle count")
	t.Note("contention — a clean score there fails the experiment, so the checker provably has teeth.")
	return []*tablefmt.Table{t}, nil
}
