package harness

import (
	"fmt"

	"ihc/internal/campaign"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
)

func init() {
	register(Experiment{ID: "recovery", Paper: "beyond the paper", Title: "Self-healing IHC: frontier with repair vs the static γ bound", Run: runRecovery})
}

// runRecovery sweeps the broken-link tolerance frontier with the
// self-healing layer enabled. The static masking bound is exact at γ
// broken links (the fault campaign finds violating placements there);
// deadline-based detection, NAK-driven retransmission, and
// Hamiltonian-cycle route patching must push the measured frontier
// strictly past γ, at a latency overhead the table reports.
func runRecovery(cfg Config) ([]*tablefmt.Table, error) {
	graphs := []*topology.Graph{topology.MustSquareTorus(4), topology.MustHypercube(4)}
	search := campaign.Search{Budget: 30, Samples: 15}
	if !cfg.Quick {
		graphs = append(graphs, topology.MustHypercube(6))
		search = campaign.Search{Budget: 60, Samples: 40}
	}

	front := tablefmt.New("Broken-link tolerance frontier with self-healing repair (violation = some pair undelivered after recovery)",
		"Network", "N", "γ (static bound)", "Repaired max safe t", "Beats static")
	activity := tablefmt.New("Repair activity per frontier point (sums over graded placements; partitioned placements screened out)",
		"Network", "t", "Placements", "Partitioned", "Timeouts", "NAKs", "Retrans", "Dead links", "Detours", "Overhead %")

	type result struct {
		g       *topology.Graph
		gamma   int
		maxSafe int
		reports []*campaign.RepairedReport
	}
	results, err := sweep(cfg, len(graphs), func(i int, _ simnet.Observer) (result, error) {
		g := graphs[i]
		x, err := newIHC(g)
		if err != nil {
			return result{}, err
		}
		gamma := x.Gamma()
		reports, maxSafe, err := campaign.RepairedFrontier(x, gamma+1, search, 12)
		if err != nil {
			return result{}, err
		}
		if maxSafe <= gamma {
			return result{}, fmt.Errorf("recovery: %s repaired frontier %d does not beat static bound γ=%d", g.Name(), maxSafe, gamma)
		}
		return result{g, gamma, maxSafe, reports}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		front.Addf(r.g.Name(), r.g.N(), r.gamma, r.maxSafe, r.maxSafe > r.gamma)
		for _, rep := range r.reports {
			activity.Addf(r.g.Name(), rep.T, rep.Placements, rep.PartitionedSkipped,
				rep.Timeouts, rep.Naks, rep.Retransmissions, rep.DeadLinks, rep.Detours,
				fmt.Sprintf("%.1f", rep.MeanOverheadPct))
		}
	}
	front.Note("the static frontier breaks at exactly γ; with repair, every connected placement at γ and γ+1 still delivers")
	activity.Note("overhead %% is the repaired run's finish time vs the fault-free baseline; fault-free placements cost 0")
	return []*tablefmt.Table{front, activity}, nil
}
