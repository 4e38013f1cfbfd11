package campaign

import (
	"math/rand"
	"testing"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/topology"
)

// TestRepairedFrontierBeatsStaticBound is the tentpole acceptance
// criterion: with repair enabled, the broken-link tolerance frontier on
// SQ4 strictly exceeds the static masking bound γ. The static campaign
// (TestBrokenLinkFrontier) finds violating placements at exactly γ; here
// every connected placement at γ — and at γ+1 — must still deliver every
// pair after NAK-driven retransmission over patched routes.
func TestRepairedFrontierBeatsStaticBound(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	gamma := x.Gamma()
	cfg := Search{Budget: 40, Samples: 25}
	reports, maxSafe, err := RepairedFrontier(x, gamma+1, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if maxSafe <= gamma {
		t.Fatalf("repaired MaxSafe = %d, want > γ = %d (reports: %+v)", maxSafe, gamma, reports)
	}
	for _, rep := range reports {
		if rep.Violations > 0 {
			t.Fatalf("t=%d: %d violations, counterexample %v", rep.T, rep.Violations, rep.Counterexample)
		}
		if rep.Placements == 0 {
			t.Fatalf("t=%d: every placement screened out (%d partitioned)", rep.T, rep.PartitionedSkipped)
		}
	}
	// At t = γ the adversary CAN partition (edge connectivity is γ), so
	// the screen must have something to do by then across the walk.
	last := reports[len(reports)-1]
	if last.T >= gamma && last.PartitionedSkipped == 0 && last.Exhaustive {
		t.Fatalf("t=%d exhaustive with no partitioned placements — screen suspect", last.T)
	}
}

// TestRepairedFrontierStopsAtPartition: on a ring every placement of
// two broken links cuts the graph, so the walk stops at t = 2 with
// nothing graded and MaxSafe = 1. The points past the stop run on the
// pool too; the frontier must drop them.
func TestRepairedFrontierStopsAtPartition(t *testing.T) {
	x, err := core.New(topology.MustCycle(8), []hamilton.Cycle{{0, 1, 2, 3, 4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	reports, maxSafe, err := RepairedFrontier(x, 4, Search{Budget: 40, Samples: 25}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if maxSafe != 1 || len(reports) != 2 {
		t.Fatalf("MaxSafe %d over %d reports, want 1 over 2 (t = 1, 2)", maxSafe, len(reports))
	}
	if last := reports[1]; last.T != 2 || last.Placements != 0 || last.PartitionedSkipped == 0 {
		t.Fatalf("t=%d: %d graded, %d partitioned; want t=2 with every placement partitioned", last.T, last.Placements, last.PartitionedSkipped)
	}
}

// TestRunRepairedPointRange pins argument validation.
func TestRunRepairedPointRange(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	if _, err := RunRepairedPoint(x, -1, DefaultSearch(), 1); err == nil {
		t.Fatal("negative t accepted")
	}
	if _, err := RunRepairedPoint(x, x.Graph().M()+1, DefaultSearch(), 1); err == nil {
		t.Fatal("t beyond edge count accepted")
	}
}

// BenchmarkRepairedPointQ6 times the repaired campaign's unit of work on
// the repair-q6 benchmark distribution: Q6, t alternating between γ and
// γ+1 permanently broken links, one seeded placement per operation (the
// connectivity screen, then the repaired engine run and the grade for a
// connected placement). ns/event divides the loop's time by the engine
// events of the repaired runs.
func BenchmarkRepairedPointQ6(b *testing.B) {
	x := mustIHC(b, topology.MustHypercube(6))
	edges := x.Graph().Edges()
	gamma := x.Gamma()
	rng := rand.New(rand.NewSource(6))
	elems := make([]int, gamma+1)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := elems[:gamma+i%2]
		sampleSubset(rng, len(edges), pl)
		out, _, err := GradeRepaired(x, edges, pl, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if violates(out.Outcome) {
			b.Fatalf("placement %v: %d wrong, %d missing after repair", pl, out.Wrong, out.Missing)
		}
		events += out.Events
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}
