package harness

import (
	"fmt"

	"ihc/internal/baseline/frs"
	"ihc/internal/baseline/ks"
	"ihc/internal/baseline/rs"
	"ihc/internal/baseline/vsq"
	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
)

func init() {
	register(Experiment{ID: "table1", Paper: "Table I", Title: "RS communication pattern on Q4 (source 0)", Run: runTable1})
	register(Experiment{ID: "table2", Paper: "Table II", Title: "Execution times with ρ=0 (dedicated network)", Run: runTable2})
	register(Experiment{ID: "table3", Paper: "Table III", Title: "Execution times with ρ=0 and η=μ=2", Run: runTable3})
	register(Experiment{ID: "table4", Paper: "Table IV", Title: "Worst-case execution times (saturated network)", Run: runTable4})
}

// runTable1 regenerates Table I: the step-by-step send-receive pattern of
// the RS reliable broadcast from node 0 in Q4, grouped into the
// cut-through columns of the VRS conversion.
func runTable1(cfg Config) ([]*tablefmt.Table, error) {
	b := rs.MustNew(4, 0, true)
	steps := b.StepOps()
	t := tablefmt.New("Table I — RS broadcast from node 0 in Q4 (send ops per step; *=optional return)",
		"Step", "Operations")
	for i, ops := range steps {
		line := ""
		for _, op := range ops {
			mark := ""
			if op.Return {
				mark = "*"
			}
			if line != "" {
				line += " "
			}
			line += fmt.Sprintf("%d→%d%s", op.From, op.To, mark)
		}
		t.Addf(i+1, line)
	}
	t.Note("γ+1 = 5 steps; %d sends incl. %d optional returns; %d cut-through columns",
		b.Sends(), 4, len(b.Columns))

	// Column view: the maximal cut-through chains (paper's columns).
	ct := tablefmt.New("Table I columns — cut-through chains (head hop is injection/redirect = store-and-forward)",
		"Col", "Tree", "HeadStep", "Chain")
	for i, col := range b.Columns {
		line := ""
		for j, v := range col.Route {
			if j > 0 {
				line += "→"
			}
			line += fmt.Sprintf("%d", v)
		}
		ct.Addf(i+1, col.Tree, col.HeadStep, line)
	}
	return []*tablefmt.Table{t, ct}, nil
}

// ihcMeasured runs IHC on a fresh network over g and returns the
// measured finish, crediting simulator events to cfg.Stats. obs is the
// calling sweep point's observer, attached to the run.
func ihcMeasured(cfg Config, g *topology.Graph, p simnet.Params, eta int, obs simnet.Observer) (simnet.Time, *core.Result, error) {
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		return 0, nil, err
	}
	x, err := core.New(g, cycles)
	if err != nil {
		return 0, nil, err
	}
	res, err := x.Run(core.Config{Eta: eta, Params: p, SkipCopies: true, Observe: obs})
	if err != nil {
		return 0, nil, err
	}
	cfg.addEvents(res.Events)
	return res.Finish, res, nil
}

// table2Sizes returns the network sizes exercised by Tables II-IV.
func table2Sizes(quick bool) (qDim, sqM, hM int) {
	if quick {
		return 4, 4, 3
	}
	return 8, 12, 4
}

// runTable2 reproduces Table II: dedicated-network execution times, model
// (the paper's closed forms) against measured simulation, for every
// algorithm on its topology. The seven (algorithm, topology) points are
// independent simulations on fresh networks, fanned across the worker
// pool and merged back in row order.
func runTable2(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	eta := p.Mu
	qDim, sqM, hM := table2Sizes(cfg.Quick)
	t := tablefmt.New(
		fmt.Sprintf("Table II — execution times, ρ=0 (τ_S=%d α=%d μ=%d, η=%d ticks)", p.TauS, p.Alpha, p.Mu, eta),
		"Algorithm", "Network", "N", "Model", "Measured", "Measured-Model")

	var points []func(obs simnet.Observer) (row, error)
	// IHC on all three families.
	for _, g := range []*topology.Graph{
		topology.MustHypercube(qDim), topology.MustSquareTorus(sqM), topology.MustHexMesh(hM),
	} {
		g := g
		points = append(points, func(obs simnet.Observer) (row, error) {
			measured, res, err := ihcMeasured(cfg, g, p, eta, obs)
			if err != nil {
				return nil, err
			}
			if res.Contentions != 0 && g.N()%eta == 0 {
				return nil, fmt.Errorf("table2: IHC on %s had %d contentions", g.Name(), res.Contentions)
			}
			m := model.IHCBest(p, g.N(), eta)
			return row{"IHC", g.Name(), g.N(), m, measured, match(measured, m)}, nil
		})
	}
	points = append(points,
		func(obs simnet.Observer) (row, error) {
			vres, err := rs.ATA(qDim, p, simnet.Options{Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(vres.Events)
			vm := model.VRSATABest(p, 1<<qDim)
			return row{"VRS-ATA", fmt.Sprintf("Q%d", qDim), 1 << qDim, vm, vres.Finish, match(vres.Finish, vm)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			kres, err := ks.ATA(hM, p, simnet.Options{Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(kres.Events)
			km := model.KSATABest(p, hM)
			return row{"KS-ATA", fmt.Sprintf("H%d", hM), topology.HexMeshSize(hM), km, kres.Finish, match(kres.Finish, km)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			sres, err := vsq.ATA(sqM, p, simnet.Options{Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(sres.Events)
			sm := model.VSQATABest(p, sqM)
			return row{"VSQ-ATA", fmt.Sprintf("SQ%d", sqM), sqM * sqM, sm, sres.Finish, match(sres.Finish, sm)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			fres, err := frs.Run(qDim, p, false)
			if err != nil {
				return nil, err
			}
			cfg.addEvents(fres.Events)
			fm := model.FRSBest(p, 1<<qDim)
			return row{"FRS", fmt.Sprintf("Q%d", qDim), 1 << qDim, fm, fres.Finish, match(fres.Finish, fm)}, nil
		},
	)
	rows, err := sweepRows(cfg, points)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}

	t.Note("IHC and FRS match their closed forms exactly; the serialized baselines measure at or")
	t.Note("below the paper's structural bounds (our causal simulation overlaps redirects that the")
	t.Note("paper's longest-path accounting serializes; KS/VSQ patterns are reconstructions).")
	return []*tablefmt.Table{t}, nil
}

// runTable3 reproduces Table III: the η=μ=2 instantiation — the paper's
// headline comparison — expressed as the factor by which IHC wins. The
// seven measured runs are independent; the winning ratios need several
// finishes at once, so the sweep collects all finish times in a fixed
// order and the rows are assembled afterwards.
func runTable3(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	p.Mu = 2
	qDim, sqM, hM := table2Sizes(cfg.Quick)
	n := 1 << qDim

	points := []func(obs simnet.Observer) (simnet.Time, error){
		func(obs simnet.Observer) (simnet.Time, error) {
			f, _, err := ihcMeasured(cfg, topology.MustHypercube(qDim), p, 2, obs)
			return f, err
		},
		func(obs simnet.Observer) (simnet.Time, error) {
			vres, err := rs.ATA(qDim, p, simnet.Options{Observe: obs})
			if err != nil {
				return 0, err
			}
			cfg.addEvents(vres.Events)
			return vres.Finish, nil
		},
		func(obs simnet.Observer) (simnet.Time, error) {
			fres, err := frs.Run(qDim, p, false)
			if err != nil {
				return 0, err
			}
			cfg.addEvents(fres.Events)
			return fres.Finish, nil
		},
		func(obs simnet.Observer) (simnet.Time, error) {
			f, _, err := ihcMeasured(cfg, topology.MustSquareTorus(sqM), p, 2, obs)
			return f, err
		},
		func(obs simnet.Observer) (simnet.Time, error) {
			sres, err := vsq.ATA(sqM, p, simnet.Options{Observe: obs})
			if err != nil {
				return 0, err
			}
			cfg.addEvents(sres.Events)
			return sres.Finish, nil
		},
		func(obs simnet.Observer) (simnet.Time, error) {
			f, _, err := ihcMeasured(cfg, topology.MustHexMesh(hM), p, 2, obs)
			return f, err
		},
		func(obs simnet.Observer) (simnet.Time, error) {
			kres, err := ks.ATA(hM, p, simnet.Options{Observe: obs})
			if err != nil {
				return 0, err
			}
			cfg.addEvents(kres.Events)
			return kres.Finish, nil
		},
	}
	fin, err := sweep(cfg, len(points), func(i int, obs simnet.Observer) (simnet.Time, error) { return points[i](obs) })
	if err != nil {
		return nil, err
	}
	ihcQ, vrs, frsF, ihcSQ, vsqF, ihcH, ksF := fin[0], fin[1], fin[2], fin[3], fin[4], fin[5], fin[6]

	t := tablefmt.New(
		fmt.Sprintf("Table III — ρ=0, η=μ=2 (hypercube Q%d, N=%d): IHC vs the alternatives", qDim, n),
		"Algorithm", "Model", "Measured", "Slower than IHC (measured)")
	t.Addf("IHC (2τ_S+2Nα form)", model.IHCBest(p, n, 2), ihcQ, "1.0x")
	t.Addf("VRS-ATA", model.VRSATABest(p, n), vrs, ratio(vrs, ihcQ))
	t.Addf("FRS", model.FRSBest(p, n), frsF, ratio(frsF, ihcQ))
	t.Addf(fmt.Sprintf("VSQ-ATA (SQ%d vs IHC on SQ%d)", sqM, sqM), model.VSQATABest(p, sqM), vsqF, ratio(vsqF, ihcSQ))
	t.Addf(fmt.Sprintf("KS-ATA (H%d vs IHC on H%d)", hM, hM), model.KSATABest(p, hM), ksF, ratio(ksF, ihcH))
	t.Note("the paper's qualitative claim — IHC clearly better than all alternatives in a dedicated")
	t.Note("network — holds with factors growing linearly in N (serialized baselines cost N broadcasts).")
	return []*tablefmt.Table{t}, nil
}

func ratio(a, b simnet.Time) string { return fmt.Sprintf("%.1fx", float64(a)/float64(b)) }

// runTable4 reproduces Table IV: worst-case (saturated) execution times.
// The simulator's Saturated mode forces every hop through intermediate
// storage with queueing delay D, the paper's limiting regime.
func runTable4(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	eta := p.Mu
	qDim, sqM, hM := table2Sizes(cfg.Quick)
	if !cfg.Quick {
		// Saturated serialized baselines are slow to simulate at Q8;
		// Table IV's shape shows at moderate sizes.
		qDim, sqM, hM = 6, 8, 4
	}
	n := 1 << qDim
	t := tablefmt.New(
		fmt.Sprintf("Table IV — worst-case times (every hop buffered + queued; τ_S=%d α=%d μ=%d D=%d)", p.TauS, p.Alpha, p.Mu, p.D),
		"Algorithm", "Network", "Model (paper)", "Measured", "Measured-Model")

	points := []func(obs simnet.Observer) (row, error){
		func(obs simnet.Observer) (row, error) {
			cycles, err := hamilton.Decompose(topology.MustHypercube(qDim))
			if err != nil {
				return nil, err
			}
			x, err := core.New(topology.MustHypercube(qDim), cycles)
			if err != nil {
				return nil, err
			}
			res, err := x.Run(core.Config{Eta: eta, Params: p, Saturated: true, SkipCopies: true, Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(res.Events)
			im := model.IHCWorst(p, n, eta)
			return row{"IHC", fmt.Sprintf("Q%d", qDim), im, res.Finish, match(res.Finish, im)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			vres, err := rs.ATA(qDim, p, simnet.Options{Saturated: true, Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(vres.Events)
			vm := model.VRSATAWorst(p, n)
			return row{"VRS-ATA", fmt.Sprintf("Q%d", qDim), vm, vres.Finish, match(vres.Finish, vm)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			kres, err := ks.ATA(hM, p, simnet.Options{Saturated: true, Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(kres.Events)
			km := model.KSATAWorst(p, hM)
			return row{"KS-ATA", fmt.Sprintf("H%d", hM), km, kres.Finish, match(kres.Finish, km)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			sres, err := vsq.ATA(sqM, p, simnet.Options{Saturated: true, Observe: obs})
			if err != nil {
				return nil, err
			}
			cfg.addEvents(sres.Events)
			sm := model.VSQATAWorst(p, sqM)
			return row{"VSQ-ATA", fmt.Sprintf("SQ%d", sqM), sm, sres.Finish, match(sres.Finish, sm)}, nil
		},
		func(obs simnet.Observer) (row, error) {
			// FRS's worst case only adds D per step (its packets are
			// already store-and-forward); model it and measure with D
			// folded into τ_S.
			pf := p
			pf.TauS += p.D
			fres, err := frs.Run(qDim, pf, false)
			if err != nil {
				return nil, err
			}
			cfg.addEvents(fres.Events)
			fm := model.FRSWorst(p, n)
			return row{"FRS", fmt.Sprintf("Q%d", qDim), fm, fres.Finish, match(fres.Finish, fm)}, nil
		},
	}
	rows, err := sweepRows(cfg, points)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}

	t.Note("who wins flips under saturation: FRS (merging store-and-forward) is fastest, as the paper")
	t.Note("concludes; among cut-through algorithms IHC keeps the best worst case (η(N-1) vs N·path).")
	return []*tablefmt.Table{t}, nil
}
