package campaign

import (
	"errors"
	"math/rand"
	"testing"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/reliable"
	"ihc/internal/topology"
)

func mustIHC(t testing.TB, g *topology.Graph) *core.IHC {
	t.Helper()
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestGraderMatchesEvaluateIHC pins the structural grader to the
// reference combinatorial evaluator over random placements of every
// domain and kind, signed and unsigned.
func TestGraderMatchesEvaluateIHC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*topology.Graph{topology.MustSquareTorus(4), topology.MustHexMesh(3)} {
		x := mustIHC(t, g)
		kr := reliable.NewKeyring(g.N(), 3)
		cases := []struct {
			domain Domain
			kind   fault.Kind
		}{
			{DomainLinks, fault.Crash},   // broken links
			{DomainLinks, fault.Corrupt}, // noisy links
			{DomainNodes, fault.Crash},
			{DomainNodes, fault.Corrupt},
			{DomainNodes, fault.Byzantine},
		}
		for _, c := range cases {
			gr := newGrader(x, rng.Int63())
			size := len(gr.edges)
			if c.domain == DomainNodes {
				size = g.N()
			}
			for trial := 0; trial < 20; trial++ {
				tSize := rng.Intn(5)
				elems := make([]int, tSize)
				sampleSubset(rng, size, elems)
				for _, signed := range []bool{false, true} {
					got := gr.grade(elems, c.domain, c.kind, signed)
					want, err := reliable.EvaluateIHC(x, buildPlan(gr.edges, elems, c.domain, c.kind, gr.seed), signed, kr)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s %v/%v signed=%v elems=%v: grader %+v != EvaluateIHC %+v",
							g.Name(), c.domain, c.kind, signed, elems, got, want)
					}
				}
			}
		}
	}
}

func quickSearch() Search { return Search{Budget: 50000, Samples: 4000, CrossCheck: 997} }

// TestUnsignedNoisyLinkFrontier is the satellite property test for the
// unsigned bound t = ⌈γ/2⌉−1 under the adversary model where it is
// exact (payload-corrupting links): every enumerated placement at the
// bound delivers everywhere, and at t+1 the campaign finds — and shrinks
// to minimal size — a violating placement on every topology.
func TestUnsignedNoisyLinkFrontier(t *testing.T) {
	for _, tc := range []struct {
		g     *topology.Graph
		bound int // ⌈γ/2⌉−1
	}{
		{topology.MustSquareTorus(4), 1}, // SQ4, γ=4
		{topology.MustHypercube(4), 1},   // Q4, γ=4
		{topology.MustHexMesh(3), 2},     // H3, γ=6
	} {
		x := mustIHC(t, tc.g)
		base := Point{X: x, Domain: DomainLinks, Kind: fault.Corrupt, Seed: 1}
		f, err := RunFrontier(base, quickSearch(), tc.bound+1)
		if err != nil {
			t.Fatal(err)
		}
		if f.MaxSafe != tc.bound {
			t.Errorf("%s unsigned noisy links: MaxSafe = %d, want %d (reports %+v)",
				tc.g.Name(), f.MaxSafe, tc.bound, f.Reports)
			continue
		}
		if f.MinBroken != tc.bound+1 {
			t.Errorf("%s unsigned noisy links: MinBroken = %d, want %d", tc.g.Name(), f.MinBroken, tc.bound+1)
			continue
		}
		for _, rep := range f.Reports[:tc.bound] {
			if !rep.Exhaustive {
				t.Errorf("%s t=%d: expected exhaustive enumeration, got sampling", tc.g.Name(), rep.T)
			}
			if rep.Violations != 0 {
				t.Errorf("%s t=%d: %d violations at or below the bound", tc.g.Name(), rep.T, rep.Violations)
			}
		}
		broken := f.Reports[tc.bound]
		if !broken.Confirmed || len(broken.Counterexample) == 0 {
			t.Errorf("%s t=%d: violation not confirmed/shrunk: %+v", tc.g.Name(), broken.T, broken)
		}
		// At t = γ/2 a tie is the failure mode: the vote goes missing, it
		// cannot go wrong (corrupted can tie but never outnumber intact).
		if o := broken.CounterexampleOutcome; o.Wrong != 0 || o.Missing == 0 {
			t.Errorf("%s t=%d counterexample outcome %+v: want missing>0, wrong=0", tc.g.Name(), broken.T, o)
		}
	}
}

// TestSignedNoisyLinkFrontier: with MACs, corrupted copies are discarded
// on receipt, so delivery survives any t ≤ γ−1 noisy links (at least one
// copy arrives intact) and fails at t = γ. SQ4 and Q4 are enumerated
// exhaustively through the whole frontier; H3's C(57,5) ≈ 4.2M placements
// exceed the budget, so the bound there is checked by seeded uniform +
// targeted sampling.
func TestSignedNoisyLinkFrontier(t *testing.T) {
	for _, tc := range []struct {
		g     *topology.Graph
		gamma int
	}{
		{topology.MustSquareTorus(4), 4},
		{topology.MustHexMesh(3), 6},
	} {
		x := mustIHC(t, tc.g)
		base := Point{X: x, Signed: true, Domain: DomainLinks, Kind: fault.Corrupt, Seed: 1}
		f, err := RunFrontier(base, quickSearch(), tc.gamma)
		if err != nil {
			t.Fatal(err)
		}
		if f.MaxSafe != tc.gamma-1 || f.MinBroken != tc.gamma {
			t.Errorf("%s signed noisy links: MaxSafe=%d MinBroken=%d, want %d/%d",
				tc.g.Name(), f.MaxSafe, f.MinBroken, tc.gamma-1, tc.gamma)
			continue
		}
		broken := f.Reports[len(f.Reports)-1]
		if !broken.Confirmed {
			t.Errorf("%s signed t=%d: counterexample not confirmed", tc.g.Name(), broken.T)
		}
		// Signed failure is always detected, never silent.
		if o := broken.CounterexampleOutcome; o.Wrong != 0 {
			t.Errorf("%s signed counterexample has wrong deliveries: %+v", tc.g.Name(), o)
		}
	}
}

// TestQ6UnsignedFrontier is the large-topology acceptance point: on Q6
// (γ=6, 192 links) t=1 and t=2 are enumerated exhaustively (192 and
// C(192,2)=18336 placements) with zero violations, and t=3 — where
// C(192,3) ≈ 1.16M exceeds the budget — is searched with 10⁴ seeded
// samples. Uniform samples almost never land 3 noisy links on one
// pair's routes in a domain this large; the alternating targeted
// strategy is what finds the t=3 tie violation.
func TestQ6UnsignedFrontier(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(6))
	base := Point{X: x, Domain: DomainLinks, Kind: fault.Corrupt, Seed: 1}
	f, err := RunFrontier(base, DefaultSearch(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxSafe != 2 || f.MinBroken != 3 {
		t.Fatalf("Q6 unsigned noisy links: MaxSafe=%d MinBroken=%d, want 2/3 (%+v)", f.MaxSafe, f.MinBroken, f.Reports)
	}
	for _, rep := range f.Reports[:2] {
		if !rep.Exhaustive || rep.Violations != 0 {
			t.Errorf("Q6 t=%d: exhaustive=%v violations=%d, want exhaustive and none", rep.T, rep.Exhaustive, rep.Violations)
		}
	}
	broken := f.Reports[2]
	if broken.Exhaustive || broken.Placements < 10000 {
		t.Errorf("Q6 t=3 should sample >= 10^4 placements, got %d (exhaustive=%v)", broken.Placements, broken.Exhaustive)
	}
	if !broken.Confirmed || broken.CounterexampleT != 3 {
		t.Errorf("Q6 t=3 counterexample not confirmed/minimal: %+v", broken)
	}
}

// TestNodeFrontierPlacementMatters records the experiment's headline
// negative finding: the node-count bound does not survive adversarial
// *placement*. A pair's γ routes are arc-disjoint but not node-disjoint
// (an interior node lies on γ/2 of them), so on H3 (γ=6, Dolev bound
// t=2) two well-placed crash nodes already cut all six routes of some
// pair, while on SQ4 (bound t=1) the single-fault bound holds and the
// first violations appear at t=2.
func TestNodeFrontierPlacementMatters(t *testing.T) {
	cfg := quickSearch()

	sq4 := Point{X: mustIHC(t, topology.MustSquareTorus(4)), Domain: DomainNodes, Kind: fault.Crash, Seed: 1}
	f, err := RunFrontier(sq4, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxSafe != 1 || f.MinBroken != 2 {
		t.Errorf("SQ4 crash nodes: MaxSafe=%d MinBroken=%d, want 1/2", f.MaxSafe, f.MinBroken)
	}

	h3 := Point{X: mustIHC(t, topology.MustHexMesh(3)), Domain: DomainNodes, Kind: fault.Crash, Seed: 1}
	rep, err := RunPoint(Point{X: h3.X, Domain: DomainNodes, Kind: fault.Crash, Seed: 1, T: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhaustive {
		t.Fatalf("H3 t=2 crash should enumerate C(19,2)=171 placements, got sampling")
	}
	if rep.Violations == 0 {
		t.Fatalf("H3 t=2 crash nodes: adversarial placement found no violation — "+
			"the Dolev bound would hold adversarially, contradicting the route-coverage analysis: %+v", rep)
	}
	if !rep.Confirmed {
		t.Fatalf("H3 t=2 crash counterexample not confirmed: %+v", rep)
	}
}

// TestShrinkIsOneMinimal removes each element of a shrunk counterexample
// in turn and checks the violation disappears — the 1-minimality
// contract — using the reference evaluator, not the structural grader.
func TestShrinkIsOneMinimal(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	gr := newGrader(x, 7)
	// Start from a deliberately fat violating placement: 6 noisy links
	// found by scanning (unsigned).
	rng := rand.New(rand.NewSource(3))
	var fat []int
	for {
		elems := make([]int, 6)
		sampleSubset(rng, len(gr.edges), elems)
		if violates(gr.grade(elems, DomainLinks, fault.Corrupt, false)) {
			fat = elems
			break
		}
	}
	shrunk := gr.shrink(fat, DomainLinks, fault.Corrupt, false)
	if len(shrunk) >= len(fat) {
		t.Fatalf("shrink did not shrink: %d -> %d", len(fat), len(shrunk))
	}
	out, err := reliable.EvaluateIHC(x, buildPlan(gr.edges, shrunk, DomainLinks, fault.Corrupt, gr.seed), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !violates(out) {
		t.Fatalf("shrunk placement no longer violates: %+v", out)
	}
	for i := range shrunk {
		sub := append(append([]int(nil), shrunk[:i]...), shrunk[i+1:]...)
		out, err := reliable.EvaluateIHC(x, buildPlan(gr.edges, sub, DomainLinks, fault.Corrupt, gr.seed), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if violates(out) {
			t.Fatalf("dropping element %d still violates — counterexample not 1-minimal", shrunk[i])
		}
	}
}

// TestRunAllOrderAndDeterminism: a re-run of every point with the same
// seeds is bitwise-identical in the deterministic fields.
func TestRunAllOrderAndDeterminism(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	points := []Point{
		{X: x, Domain: DomainLinks, Kind: fault.Corrupt, T: 1, Seed: 9},
		{X: x, Domain: DomainLinks, Kind: fault.Corrupt, T: 2, Seed: 9},
		{X: x, Domain: DomainNodes, Kind: fault.Crash, T: 2, Seed: 9},
		{X: x, Signed: true, Domain: DomainLinks, Kind: fault.Corrupt, T: 2, Seed: 9},
	}
	cfg := quickSearch()
	for i, pt := range points {
		a, err := RunPoint(pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunPoint(pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.T != pt.T || a.Domain != pt.Domain.String() {
			t.Fatalf("report %d is for another point: %+v", i, a)
		}
		if a.Placements != b.Placements || a.Violations != b.Violations ||
			a.MinCorrectFraction != b.MinCorrectFraction ||
			len(a.Counterexample) != len(b.Counterexample) {
			t.Fatalf("report %d differs across runs:\n%+v\n%+v", i, a, b)
		}
		for j := range a.Counterexample {
			if a.Counterexample[j] != b.Counterexample[j] {
				t.Fatalf("report %d counterexample differs: %v vs %v", i, a.Counterexample, b.Counterexample)
			}
		}
	}
}

// TestSearchCanceled: a search whose Cancel channel is already closed
// grades nothing and returns ErrCanceled, from the static and the
// repaired frontier alike.
func TestSearchCanceled(t *testing.T) {
	x := mustIHC(t, topology.MustSquareTorus(4))
	cancel := make(chan struct{})
	close(cancel)
	cfg := quickSearch()
	cfg.Cancel = cancel
	pt := Point{X: x, Domain: DomainLinks, Kind: fault.Corrupt, T: 1, Seed: 9}
	if rep, err := RunPoint(pt, cfg); !errors.Is(err, ErrCanceled) || rep != nil {
		t.Fatalf("RunPoint: (%v, %v), want (nil, ErrCanceled)", rep, err)
	}
	if f, err := RunFrontier(pt, cfg, 2); !errors.Is(err, ErrCanceled) || f != nil {
		t.Fatalf("RunFrontier: (%v, %v), want (nil, ErrCanceled)", f, err)
	}
	if reps, maxSafe, err := RepairedFrontier(x, 2, Search{Budget: 30, Samples: 15, Cancel: cancel}, 1); !errors.Is(err, ErrCanceled) || reps != nil || maxSafe != 0 {
		t.Fatalf("RepairedFrontier: (%v, %d, %v), want (nil, 0, ErrCanceled)", reps, maxSafe, err)
	}
}
