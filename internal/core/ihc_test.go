package core

import (
	"strings"
	"testing"
	"testing/quick"

	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

func params(mu int) simnet.Params {
	return simnet.Params{TauS: 100, Alpha: 20, Mu: mu, D: 37}
}

func mustIHC(t *testing.T, g *topology.Graph) *IHC {
	t.Helper()
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestNewValidation(t *testing.T) {
	g := topology.MustHypercube(4)
	cycles, err := hamilton.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, nil); err == nil {
		t.Fatal("empty cycle set accepted")
	}
	if _, err := New(g, []hamilton.Cycle{cycles[0][:10]}); err == nil {
		t.Fatal("truncated cycle accepted")
	}
	if _, err := New(g, []hamilton.Cycle{cycles[0], cycles[1], cycles[0]}); err == nil {
		t.Fatal("3 cycles on degree-4 graph accepted")
	}
	irregular := topology.New("irr", 4)
	irregular.AddEdge(0, 1)
	irregular.AddEdge(1, 2)
	irregular.AddEdge(2, 3)
	irregular.AddEdge(3, 0)
	irregular.AddEdge(0, 2)
	if _, err := New(irregular, []hamilton.Cycle{{0, 1, 2, 3}}); err == nil {
		t.Fatal("irregular graph accepted")
	}
}

func TestIDAndPattern(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	if x.Gamma() != 4 {
		t.Fatalf("gamma = %d", x.Gamma())
	}
	for j := 0; j < x.Gamma(); j++ {
		c := x.DirectedCycle(j)
		if c[0] != 0 {
			t.Fatalf("cycle %d not anchored at N0", j)
		}
		for i, v := range c {
			if x.ID(j, v) != i {
				t.Fatalf("ID_%d(%d) = %d, want %d", j, v, x.ID(j, v), i)
			}
		}
	}
	pat, err := x.InitiationPattern(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range pat {
		if s != i%3 {
			t.Fatalf("pattern[%d] = %d", i, s)
		}
	}
}

// The η guards: before the fix, InitiationPattern and StagePackets
// divided/modded by η unchecked, so η = 0 panicked with an integer divide
// and η < 0 silently produced an empty schedule that "verified" as
// contention-free.
func TestEtaValidation(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	for _, tc := range []struct {
		eta  int
		ok   bool
		name string
	}{
		{0, false, "zero"},
		{-1, false, "negative"},
		{17, false, "beyond N"},
		{1, true, "minimum"},
		{2, true, "eta equals mu"},
		{16, true, "maximum N"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, patErr := x.InitiationPattern(0, tc.eta)
			_, spErr := x.StagePackets(nil, 0, tc.eta, 0, nil)
			_, runErr := x.Run(Config{Eta: tc.eta, Params: params(2), SkipCopies: true})
			if tc.ok {
				if patErr != nil || spErr != nil || runErr != nil {
					t.Fatalf("η=%d rejected: %v / %v / %v", tc.eta, patErr, spErr, runErr)
				}
				return
			}
			if patErr == nil {
				t.Errorf("InitiationPattern accepted η=%d", tc.eta)
			}
			if spErr == nil {
				t.Errorf("StagePackets accepted η=%d", tc.eta)
			}
			if runErr == nil {
				t.Errorf("Run accepted η=%d", tc.eta)
			}
		})
	}
	if _, err := x.StagePackets(nil, 2, 2, 0, nil); err == nil {
		t.Error("stage = η accepted")
	}
	if _, err := x.StagePackets(nil, -1, 2, 0, nil); err == nil {
		t.Error("negative stage accepted")
	}
	if _, err := x.StagePackets([]int{7}, 0, 2, 0, nil); err == nil {
		t.Error("out-of-range cycle index accepted")
	}
	if _, err := x.InitiationPattern(4, 2); err == nil {
		t.Error("out-of-range cycle index accepted by InitiationPattern")
	}
	if stageOrder(0, false) != nil || stageOrder(-3, true) != nil {
		t.Error("stageOrder built a schedule for η < 1")
	}
	// Contention-freedom requires η >= μ; the checker must say so rather
	// than run the schedule.
	err := x.VerifyContentionFree(Config{Eta: 1, Params: params(2)})
	if err == nil || !strings.Contains(err.Error(), "η >= packet length μ") {
		t.Errorf("VerifyContentionFree(η<μ) = %v", err)
	}
	if err := x.VerifyContentionFree(Config{Eta: 2, Params: params(2)}); err != nil {
		t.Errorf("VerifyContentionFree(η=μ) = %v", err)
	}
}

func TestStagePacketsStructure(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	specs, err := x.StagePackets(nil, 1, 2, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 directed cycles x 8 sources (positions 1,3,...,15).
	if len(specs) != 4*8 {
		t.Fatalf("got %d packets", len(specs))
	}
	for _, s := range specs {
		if len(s.Route) != 16 {
			t.Fatalf("route length %d", len(s.Route))
		}
		if !s.Tee {
			t.Fatal("IHC packets must tee")
		}
		if s.Inject != 50 {
			t.Fatalf("inject = %d", s.Inject)
		}
		if x.ID(s.ID.Channel, s.ID.Source)%2 != 1 {
			t.Fatalf("packet %v not a stage-1 source", s.ID)
		}
		// Route must follow the cycle: last node is prev_j(source).
		c := x.DirectedCycle(s.ID.Channel)
		p := x.ID(s.ID.Channel, s.ID.Source)
		if s.Route[15] != c.Prev(p) {
			t.Fatalf("route end %d != prev %d", s.Route[15], c.Prev(p))
		}
	}
}

// The central claims, on all three topology families: with η >= μ and a
// dedicated network the run is contention-free, every relay cuts through,
// every node gets exactly γ copies of every message, and the measured
// time equals Table II's closed form.
func TestDedicatedRunMatchesTableII(t *testing.T) {
	cases := []struct {
		g   *topology.Graph
		eta int
		mu  int
	}{
		{topology.MustHypercube(4), 2, 2},
		{topology.MustHypercube(4), 4, 4},
		{topology.MustHypercube(5), 2, 2},
		{topology.MustHypercube(6), 2, 2},
		{topology.MustSquareTorus(4), 2, 2},
		{topology.MustSquareTorus(6), 3, 3},
		{topology.MustSquareTorus(5), 5, 5},
		{topology.MustHexMesh(3), 1, 1},
		{topology.MustHexMesh(4), 1, 1},
	}
	for _, tc := range cases {
		x := mustIHC(t, tc.g)
		p := params(tc.mu)
		cfg := Config{Eta: tc.eta, Params: p}
		if err := x.VerifyContentionFree(cfg); err != nil {
			t.Fatalf("%s η=%d μ=%d: static check: %v", tc.g.Name(), tc.eta, tc.mu, err)
		}
		res, err := x.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.g.N()
		if res.Contentions != 0 {
			t.Fatalf("%s η=%d μ=%d: %d contentions", tc.g.Name(), tc.eta, tc.mu, res.Contentions)
		}
		want := model.IHCBest(p, n, tc.eta)
		if res.Finish != want {
			t.Fatalf("%s η=%d μ=%d: finish = %d, want %d", tc.g.Name(), tc.eta, tc.mu, res.Finish, want)
		}
		if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
			t.Fatalf("%s: %v", tc.g.Name(), err)
		}
		// All non-injection hops were cut-throughs: γN packets, N-1 hops
		// each, of which the first is the injection.
		wantCuts := x.Gamma() * n * (n - 2)
		if res.CutThroughs != wantCuts {
			t.Fatalf("%s: cut-throughs = %d, want %d", tc.g.Name(), res.CutThroughs, wantCuts)
		}
	}
}

// Theorem 4: with η = μ = 1 the measured time equals the optimality bound
// τ_S + (N-1)α exactly.
func TestTheorem4Optimality(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.MustHypercube(4),
		topology.MustHypercube(6),
		topology.MustSquareTorus(5),
		topology.MustHexMesh(3),
	} {
		x := mustIHC(t, g)
		p := params(1)
		res, err := x.Run(Config{Eta: 1, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		want := model.OptimalATATime(p, g.N())
		if res.Finish != want {
			t.Fatalf("%s: finish = %d, bound %d", g.Name(), res.Finish, want)
		}
	}
}

// η < μ must contend (negative control for the interleaving invariant).
func TestEtaBelowMuContends(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	res, err := x.Run(Config{Eta: 1, Params: params(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contentions == 0 {
		t.Fatal("η=1 < μ=2 ran without contention")
	}
	// Delivery is still complete and correct — contention costs time, not
	// correctness.
	if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
		t.Fatal(err)
	}
	if err := x.VerifyContentionFree(Config{Eta: 1, Params: params(2)}); err == nil {
		t.Fatal("static analysis missed η<μ contention")
	}
}

// The modified (overlapped) IHC saves exactly (η-1)(μ-1)α and stays
// contention-free.
func TestOverlappedStages(t *testing.T) {
	for _, tc := range []struct {
		g   *topology.Graph
		eta int
	}{
		{topology.MustHypercube(4), 2},
		{topology.MustHypercube(4), 4},
		{topology.MustSquareTorus(6), 3},
	} {
		x := mustIHC(t, tc.g)
		p := params(tc.eta) // η = μ
		plain, err := x.Run(Config{Eta: tc.eta, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		over, err := x.Run(Config{Eta: tc.eta, Params: p, Overlap: true})
		if err != nil {
			t.Fatal(err)
		}
		if over.Contentions != 0 {
			t.Fatalf("%s η=μ=%d overlapped: %d contentions", tc.g.Name(), tc.eta, over.Contentions)
		}
		saving := plain.Finish - over.Finish
		want := simnet.Time((tc.eta-1)*(p.Mu-1)) * p.Alpha
		if saving != want {
			t.Fatalf("%s η=μ=%d: saving = %d, want %d", tc.g.Name(), tc.eta, saving, want)
		}
		if err := over.Copies.VerifyATA(x.Gamma()); err != nil {
			t.Fatal(err)
		}
		want2 := model.IHCBestOverlapped(p, tc.g.N(), tc.eta)
		if over.Finish != want2 {
			t.Fatalf("%s: overlapped finish %d != model %d", tc.g.Name(), over.Finish, want2)
		}
	}
}

// Saturated regime reproduces Table IV exactly.
func TestSaturatedMatchesTableIV(t *testing.T) {
	for _, eta := range []int{1, 2, 4} {
		x := mustIHC(t, topology.MustHypercube(4))
		p := params(2)
		res, err := x.Run(Config{Eta: eta, Params: p, Saturated: true})
		if err != nil {
			t.Fatal(err)
		}
		want := model.IHCWorst(p, 16, eta)
		if res.Finish != want {
			t.Fatalf("η=%d: saturated finish = %d, want %d", eta, res.Finish, want)
		}
		if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
			t.Fatal(err)
		}
	}
}

// Background traffic slows the broadcast but never past the Table IV
// bound's regime, and delivery stays complete.
func TestLoadedNetworkDegradesGracefully(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	p := params(2)
	p.Rho = 0.4
	p.Seed = 11
	res, err := x.Run(Config{Eta: 2, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	clean := model.IHCBest(params(2), 16, 2)
	if res.Finish <= clean {
		t.Fatalf("loaded run %d not slower than dedicated %d", res.Finish, clean)
	}
	if res.BgBlocked == 0 {
		t.Fatal("no background blocking at ρ=0.4")
	}
	if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
		t.Fatal(err)
	}
}

// Injection skew stretches time but does not break correctness or cause
// packet loss ("it merely affects the amount of time required").
func TestSkewToleratedCorrectly(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	p := params(2)
	skew := func(v topology.Node, stage int) simnet.Time {
		return simnet.Time(v%5) * 7 // deterministic jitter up to 28 ticks
	}
	res, err := x.Run(Config{Eta: 2, Params: p, Skew: skew})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
		t.Fatal(err)
	}
	base := model.IHCBest(p, 16, 2)
	if res.Finish < base {
		t.Fatalf("skewed run finished before dedicated bound")
	}
}

// Per-cycle stage chaining produces the same result in a dedicated
// network (all cycles advance in lockstep anyway).
func TestPerCycleChainingDedicated(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	p := params(2)
	a, err := x.Run(Config{Eta: 2, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Run(Config{Eta: 2, Params: p, PerCycle: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Finish != b.Finish || a.Contentions != b.Contentions {
		t.Fatalf("per-cycle %d/%d vs batch %d/%d", b.Finish, b.Contentions, a.Finish, a.Contentions)
	}
	if err := b.Copies.VerifyATA(x.Gamma()); err != nil {
		t.Fatal(err)
	}
}

// Sequential invocation over k < γ cycles: k copies per message, k times
// the single-cycle duration.
func TestRunSequentialReducedReliability(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	p := params(2)
	for k := 1; k <= 4; k++ {
		res, err := x.RunSequential(Config{Eta: 2, Params: p}, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Copies.VerifyATA(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := simnet.Time(k) * model.IHCBest(p, 16, 2)
		if res.Finish != want {
			t.Fatalf("k=%d: finish = %d, want %d", k, res.Finish, want)
		}
	}
	if _, err := x.RunSequential(Config{Eta: 2, Params: p}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := x.RunSequential(Config{Eta: 2, Params: p}, 5); err == nil {
		t.Fatal("k>γ accepted")
	}
}

func TestRunValidation(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	if _, err := x.Run(Config{Eta: 0, Params: params(1)}); err == nil {
		t.Fatal("η=0 accepted")
	}
	if _, err := x.Run(Config{Eta: 17, Params: params(1)}); err == nil {
		t.Fatal("η>N accepted")
	}
	bad := params(1)
	bad.Alpha = 0
	if _, err := x.Run(Config{Eta: 1, Params: bad}); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := x.Run(Config{Eta: 1, Params: params(1), Cycles: []int{9}}); err == nil {
		t.Fatal("bad cycle index accepted")
	}
}

// Property: for random η >= μ dividing N, dedicated hypercube runs are
// contention-free and match the model.
func TestQuickDedicatedInvariant(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(4))
	f := func(etaRaw, muRaw uint8) bool {
		eta := []int{1, 2, 4, 8, 16}[int(etaRaw)%5]
		mu := int(muRaw)%eta + 1 // μ <= η
		p := params(mu)
		res, err := x.Run(Config{Eta: eta, Params: p, SkipCopies: true})
		if err != nil {
			return false
		}
		return res.Contentions == 0 &&
			res.Finish == model.IHCBest(p, 16, eta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of injected packets is γN regardless of η, and
// deliveries total γN(N-1).
func TestQuickPacketAccounting(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	f := func(etaRaw uint8) bool {
		eta := []int{1, 2, 4, 8, 16}[int(etaRaw)%5]
		p := params(1)
		res, err := x.Run(Config{Eta: eta, Params: p, SkipCopies: true})
		if err != nil {
			return false
		}
		n := 16
		return res.Injections == x.Gamma()*n && res.Deliveries == x.Gamma()*n*(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
