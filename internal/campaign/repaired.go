package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/par"
	"ihc/internal/reliable"
	"ihc/internal/repair"
	"ihc/internal/topology"
)

// The repaired frontier asks the adversary question with the recovery
// layer switched on: how many permanently dead links can the adversary
// place before some fault-free pair fails to receive a message? The
// static bound is exactly γ (PR 3's campaign finds violating placements
// at γ broken links); the self-healing layer must move the frontier
// strictly past it, because detection + NAK + retransmission over
// patched routes only needs the residual graph to be connected, not γ
// surviving arc-disjoint cycle paths.
//
// Placements that disconnect the residual graph are screened out and
// counted, not graded: no routing discipline can deliver across a cut
// with every crossing link dead, so they say nothing about the repair
// layer. The smallest such placement is the edge connectivity, which on
// these topologies equals γ — hence the frontier's ceiling is the
// largest t where every connected placement still delivers, and the
// claim "MaxSafe > γ" is a meaningful strengthening.

// RepairedReport is the outcome of searching one broken-link count t
// with repair enabled.
type RepairedReport struct {
	Topo  string `json:"topo"`
	N     int    `json:"n"`
	Gamma int    `json:"gamma"`
	T     int    `json:"t"`
	// Placements graded (connected residual graphs only).
	Placements int  `json:"placements"`
	Exhaustive bool `json:"exhaustive"`
	// PartitionedSkipped counts placements screened out because the dead
	// links disconnected the graph (delivery is impossible, not a repair
	// failure).
	PartitionedSkipped int `json:"partitioned_skipped"`
	// Violations counts connected placements where some fault-free pair
	// still graded Wrong or Missing after repair.
	Violations int `json:"violations"`
	// Counterexample is the first violating placement, if any.
	Counterexample []string `json:"counterexample,omitempty"`
	// Aggregate repair activity over graded placements.
	Timeouts        int64 `json:"timeouts"`
	Naks            int64 `json:"naks"`
	Retransmissions int64 `json:"retransmissions"`
	DeadLinks       int64 `json:"dead_links"`
	Detours         int64 `json:"detours"`
	// MeanOverheadPct is the average latency overhead of the repaired
	// runs against the fault-free baseline.
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
	ElapsedSec      float64 `json:"elapsed_sec"`
}

// RunRepairedPoint searches one (topology, t) point with repair
// enabled: it visits broken-link placements of size t (exhaustively
// when C(M,t) fits cfg.Budget, else cfg.Samples seeded draws), screens
// out those that disconnect the graph, and grades the rest through the
// engine with the recovery layer attached.
func RunRepairedPoint(x *core.IHC, t int, cfg Search, seed int64) (*RepairedReport, error) {
	g := x.Graph()
	edges := g.Edges()
	if t < 0 || t > len(edges) {
		return nil, fmt.Errorf("campaign: repaired point t = %d out of range [0,%d] on %s", t, len(edges), g.Name())
	}
	rep := &RepairedReport{Topo: g.Name(), N: g.N(), Gamma: x.Gamma(), T: t}
	start := time.Now()
	var overheadSum float64

	visit := func(elems []int) error {
		select {
		case <-cfg.Cancel:
			return ErrCanceled
		default:
		}
		out, connected, err := GradeRepaired(x, edges, elems, seed)
		if err != nil {
			return fmt.Errorf("campaign: repaired grading on %s t=%d: %w", g.Name(), t, err)
		}
		if !connected {
			rep.PartitionedSkipped++
			return nil
		}
		rep.Placements++
		rep.Timeouts += int64(out.Stats.Timeouts)
		rep.Naks += int64(out.Stats.Naks)
		rep.Retransmissions += int64(out.Stats.Retransmissions)
		rep.DeadLinks += int64(out.Stats.DeadLinks)
		rep.Detours += int64(out.Stats.Detours)
		overheadSum += out.OverheadPct
		if violates(out.Outcome) {
			rep.Violations++
			if rep.Counterexample == nil {
				for _, ei := range elems {
					e := edges[ei]
					rep.Counterexample = append(rep.Counterexample, fmt.Sprintf("{%d,%d}", e.U, e.V))
				}
			}
		}
		return nil
	}

	if binomial(len(edges), t) <= cfg.Budget {
		rep.Exhaustive = true
		if err := forEachCombination(len(edges), t, visit); err != nil {
			return nil, err
		}
	} else {
		rng := rand.New(rand.NewSource(seed ^ int64(t)*0x9e3779b9))
		elems := make([]int, t)
		for i := 0; i < cfg.Samples; i++ {
			sampleSubset(rng, len(edges), elems)
			if err := visit(elems); err != nil {
				return nil, err
			}
		}
	}
	if rep.Placements > 0 {
		rep.MeanOverheadPct = overheadSum / float64(rep.Placements)
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

// GradeRepaired is the repaired campaign's unit of work: it screens
// one broken-link placement (elems index edges) and, when the residual
// graph stays connected, grades it through the engine with the repair
// layer attached. connected is false for a screened-out placement.
// BenchmarkRepairedPointQ6 and cmd/enginebench time it.
func GradeRepaired(x *core.IHC, edges []topology.Edge, elems []int, seed int64) (out reliable.RepairedOutcome, connected bool, err error) {
	res := topology.New("residual", x.N())
	dead := make(map[int]bool, len(elems))
	for _, ei := range elems {
		dead[ei] = true
	}
	for i, e := range edges {
		if !dead[i] {
			res.AddEdge(e.U, e.V)
		}
	}
	if !res.Connected() {
		return out, false, nil
	}
	tp := buildPlan(edges, elems, DomainLinks, fault.Crash, seed)
	out, err = reliable.EvaluateRepaired(x, tp, false, nil, core.Config{}, repair.Config{})
	return out, true, err
}

// RepairedFrontier walks t = 1, 2, ... up to maxT and returns the per-t
// reports plus MaxSafe: the largest t whose connected placements all
// delivered everywhere after repair. The walk stops early at the first
// t with a violation (the frontier) or when every graded placement at
// some t was partitioned (nothing left to defend). The points run on
// the par pool, so a frontier that stops early also searched the points
// past its stop; their reports and errors are dropped.
func RepairedFrontier(x *core.IHC, maxT int, cfg Search, seed int64) ([]*RepairedReport, int, error) {
	points, errs := par.Map(max(maxT, 0), false, cfg.Cancel, func(i int) (*RepairedReport, error) {
		return RunRepairedPoint(x, i+1, cfg, seed)
	})
	var reports []*RepairedReport
	maxSafe := 0
	for i, rep := range points {
		if errors.Is(errs[i], par.ErrCanceled) {
			return nil, 0, ErrCanceled
		}
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		reports = append(reports, rep)
		if rep.Violations > 0 || rep.Placements == 0 {
			break
		}
		maxSafe = i + 1
	}
	return reports, maxSafe, nil
}
