package ihc

// One benchmark per paper artifact: each BenchmarkTableN / BenchmarkFigN /
// BenchmarkTheorem4 / ... regenerates the corresponding table or figure
// through the experiment harness (quick sizes, so a full -bench=. pass
// stays fast); the experiments contain their own exact model-vs-measured
// assertions, so a passing benchmark is also a passing reproduction.
// Performance microbenchmarks for the substrate (simulator event rate,
// decomposition construction, full ATA runs) follow.

import (
	"testing"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/harness"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Paper tables ---

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, "table4") }

// --- Paper figures ---

func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "fig9") }

// --- Analysis artifacts ---

func BenchmarkTheorem4(b *testing.B)    { benchExperiment(b, "theorem4") }
func BenchmarkOverlap(b *testing.B)     { benchExperiment(b, "overlap") }
func BenchmarkHeadline(b *testing.B)    { benchExperiment(b, "headline") }
func BenchmarkCrossover(b *testing.B)   { benchExperiment(b, "crossover") }
func BenchmarkReliability(b *testing.B) { benchExperiment(b, "reliability") }
func BenchmarkLoad(b *testing.B)        { benchExperiment(b, "load") }
func BenchmarkUtilization(b *testing.B) { benchExperiment(b, "utilization") }

// --- Whole-suite run ---

// BenchmarkSuite regenerates every experiment, fanning them (and their
// inner sweep points) out on the GOMAXPROCS-wide pool. Run it with
// -cpu 1,2 to see the pool's speedup on a multi-core machine; every
// width produces identical tables.
func BenchmarkSuite(b *testing.B) {
	cfg := harness.Config{Quick: true, Stats: &harness.RunStats{}}
	for i := 0; i < b.N; i++ {
		for _, r := range harness.RunAll(cfg) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
	}
	b.ReportMetric(float64(cfg.Stats.Events())/float64(b.N), "events/op")
}

// --- Substrate performance ---

// BenchmarkDecomposeHypercube constructs and verifies the Theorem 1/2
// Hamiltonian decomposition of Q10 (1024 nodes, 5 cycles, including a
// Lemma 2 splice).
func BenchmarkDecomposeHypercube(b *testing.B) {
	g := topology.MustHypercube(10)
	for i := 0; i < b.N; i++ {
		cycles, err := hamilton.Hypercube(10)
		if err != nil {
			b.Fatal(err)
		}
		if err := hamilton.VerifyDecomposition(g, cycles, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIHCFullATA measures a complete simulated ATA reliable
// broadcast on Q8 (256 nodes, γ = 8: 522k tee deliveries per run) and
// reports simulator throughput.
func BenchmarkIHCFullATA(b *testing.B) {
	g := topology.MustHypercube(8)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		b.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		b.Fatal(err)
	}
	p := simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	b.ResetTimer()
	var deliveries int
	for i := 0; i < b.N; i++ {
		res, err := x.Run(core.Config{Eta: 2, Params: p, SkipCopies: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Contentions != 0 {
			b.Fatal("contention in dedicated run")
		}
		deliveries = res.Deliveries
	}
	b.ReportMetric(float64(deliveries)*float64(b.N)/b.Elapsed().Seconds(), "deliveries/s")
}

// BenchmarkEngineQ10ATA is the engine's headline microbenchmark: one
// complete ATA reliable broadcast on Q10 (1024 nodes, γ = 10 directed
// cycles, ~10.5M simulator events per run), with the O(N²) copy matrix
// disabled so the measurement isolates the event loop. It reports
// events/sec and ns/event; `make bench-engine` records the numbers in
// BENCH_engine.json.
func BenchmarkEngineQ10ATA(b *testing.B) {
	g := topology.MustHypercube(10)
	cycles, err := hamilton.Hypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		b.Fatal(err)
	}
	p := simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := x.Run(core.Config{Eta: 2, Params: p, SkipCopies: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Contentions != 0 {
			b.Fatal("contention in dedicated run")
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(events)*float64(b.N)), "ns/event")
}

// BenchmarkSimnetPipeline measures raw event throughput: a full ring
// pipeline of 256 packets x 255 hops.
func BenchmarkSimnetPipeline(b *testing.B) {
	const n = 256
	g := topology.MustCycle(n)
	p := simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	ring := make([]topology.Node, 2*n)
	for i := range ring {
		ring[i] = topology.Node(i % n)
	}
	specs := make([]simnet.PacketSpec, 0, n/2)
	for s := 0; s < n; s += 2 {
		specs = append(specs, simnet.PacketSpec{
			ID:    simnet.PacketID{Source: topology.Node(s)},
			Route: ring[s : s+n],
			Tee:   true,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := simnet.New(g, p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Run(specs, simnet.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Contentions != 0 {
			b.Fatal("unexpected contention")
		}
	}
	b.ReportMetric(float64(len(specs)*(n-1)), "hops/op")
}

// BenchmarkKSPatternSearch measures the rotation-disjoint spanning-tree
// search for the KS reconstruction on H8 (169 nodes).
func BenchmarkKSPatternSearch(b *testing.B) {
	// The pattern is cached per size; benchmark through the public
	// constructor on alternating sizes to defeat the cache fairly.
	for i := 0; i < b.N; i++ {
		benchKSSize(b, 6+(i%3))
	}
}

func benchKSSize(b *testing.B, m int) {
	b.Helper()
	g := topology.MustHexMesh(m)
	cycles, err := hamilton.HexMesh(m)
	if err != nil {
		b.Fatal(err)
	}
	if err := hamilton.VerifyDecomposition(g, cycles, true); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWormhole(b *testing.B) { benchExperiment(b, "wormhole") }
