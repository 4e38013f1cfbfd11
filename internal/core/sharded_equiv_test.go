package core

import (
	"reflect"
	"testing"

	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// verifyFullATA runs a full IHC ATA broadcast on g and verifies the
// Theorem 4 postcondition in both the copy matrix and the counters-only
// ledger. Identity across engine widths is checked in internal/simnet,
// where a test can force the width.
func verifyFullATA(t *testing.T, g *topology.Graph) {
	t.Helper()
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(Config{Eta: 2, Params: simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}, Ledger: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
		t.Fatalf("ATA postcondition violated: %v", err)
	}
	if err := res.Ledger.VerifyATA(x.Gamma()); err != nil {
		t.Fatalf("ledger ATA postcondition violated: %v", err)
	}
}

// TestShardedEquivalenceIHC runs verifyFullATA on SQ4, Q6 and T4x4x4.
func TestShardedEquivalenceIHC(t *testing.T) {
	cases := []struct {
		name string
		g    *topology.Graph
	}{
		{"SQ4", topology.MustSquareTorus(4)},
		{"Q6", topology.MustHypercube(6)},
		{"T4x4x4", topology.MustTorusND(4, 4, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { verifyFullATA(t, tc.g) })
	}
}

// TestSharedPathMatchesPerHopCompilation pins the compiled-path layout
// at the algorithm level: disabling the cycle-path cache (by patching
// every route to a fresh copy, which defeats the slice-identity check)
// must not change anything about the run.
func TestSharedPathMatchesPerHopCompilation(t *testing.T) {
	g := topology.MustHypercube(4)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Eta:              2,
		Params:           simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37},
		RecordDeliveries: true,
	}
	shared, err := x.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	perHop := base
	perHop.PatchRoutes = func(specs []simnet.PacketSpec) {
		for i := range specs {
			specs[i].Route = append([]topology.Node(nil), specs[i].Route...)
		}
	}
	plain, err := x.Run(perHop)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Finish != plain.Finish || shared.Events != plain.Events ||
		shared.Deliveries != plain.Deliveries || shared.Contentions != plain.Contentions {
		t.Fatalf("shared-path run differs from per-hop compilation:\n got %+v\nwant %+v", shared, plain)
	}
	if !reflect.DeepEqual(shared.Deliveriesv, plain.Deliveriesv) {
		t.Fatal("shared-path delivery log differs from per-hop compilation")
	}
}
