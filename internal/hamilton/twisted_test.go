package hamilton

import (
	"strings"
	"testing"

	"ihc/internal/topology"
)

// TestTwistedCubeGraph pins the structural invariants of TQ_n: node
// count 2^n, n-regularity, and the hand-checked TQ_3 adjacency from the
// standard definition (pair parity P_0(u) = bit 0).
func TestTwistedCubeGraph(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g, err := topology.TwistedCube(n)
		if err != nil {
			t.Fatalf("TwistedCube(%d): %v", n, err)
		}
		if g.N() != 1<<n {
			t.Fatalf("TQ%d: N = %d, want %d", n, g.N(), 1<<n)
		}
		if deg, ok := g.IsRegular(); !ok || deg != n {
			t.Fatalf("TQ%d: degree %d regular=%v, want %d-regular", n, deg, ok, n)
		}
	}
	g := topology.MustTwistedCube(3)
	want := map[topology.Node][]topology.Node{
		0: {1, 4, 6}, 1: {0, 3, 7}, 2: {3, 4, 6}, 3: {1, 2, 5},
		4: {0, 2, 5}, 5: {3, 4, 7}, 6: {0, 2, 7}, 7: {1, 5, 6},
	}
	for u, nbrs := range want {
		got := g.Neighbors(u)
		if len(got) != len(nbrs) {
			t.Fatalf("TQ3 node %d: neighbors %v, want %v", u, got, nbrs)
		}
		for i := range nbrs {
			if got[i] != nbrs[i] {
				t.Fatalf("TQ3 node %d: neighbors %v, want %v", u, got, nbrs)
			}
		}
	}
}

// TestTwistedCubeDecomposition verifies the constructed HC pair on
// every size the repository exercises: Hamiltonian, edge-disjoint, and
// full-cover exactly for TQ_4 (the only size where 2 HCs use all n2^n/2
// edges).
func TestTwistedCubeDecomposition(t *testing.T) {
	for n := 3; n <= 9; n++ {
		g := topology.MustTwistedCube(n)
		cycles, err := TwistedCube(n)
		if err != nil {
			t.Fatalf("TwistedCube(%d): %v", n, err)
		}
		wantCycles := 2
		if n == 3 {
			wantCycles = 1
		}
		if len(cycles) != wantCycles {
			t.Fatalf("TQ%d: %d cycles, want %d", n, len(cycles), wantCycles)
		}
		if err := VerifyDecomposition(g, cycles, n == 4); err != nil {
			t.Fatalf("TQ%d decomposition: %v", n, err)
		}
	}
	if _, err := TwistedCube(2); err == nil {
		t.Fatal("TwistedCube(2) should fail")
	}
	if _, err := TwistedCube(23); err == nil {
		t.Fatal("TwistedCube(23) should fail")
	}
}

// TestKAryTorusDecomposition checks the k-ary family against its torus
// ancestry: same node numbering as TorusND, full-cover decomposition
// with n undirected cycles.
func TestKAryTorusDecomposition(t *testing.T) {
	for _, p := range [][2]int{{3, 1}, {3, 2}, {4, 2}, {5, 2}, {3, 3}, {4, 3}} {
		k, n := p[0], p[1]
		g := topology.MustKAryTorus(k, n)
		cycles, err := KAryTorus(k, n)
		if err != nil {
			t.Fatalf("KAryTorus(%d,%d): %v", k, n, err)
		}
		if len(cycles) != n {
			t.Fatalf("KT%dx%d: %d cycles, want %d", k, n, len(cycles), n)
		}
		if err := VerifyDecomposition(g, cycles, true); err != nil {
			t.Fatalf("KT%dx%d decomposition: %v", k, n, err)
		}
		dims := make([]int, n)
		for i := range dims {
			dims[i] = k
		}
		ref := topology.MustTorusND(dims...)
		if ref.M() != g.M() || ref.N() != g.N() {
			t.Fatalf("KT%dx%d: size (%d,%d) differs from TorusND (%d,%d)", k, n, g.N(), g.M(), ref.N(), ref.M())
		}
		for _, e := range ref.Edges() {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("KT%dx%d: missing TorusND edge %v", k, n, e)
			}
		}
	}
	if _, err := KAryTorus(2, 2); err == nil {
		t.Fatal("KAryTorus(2,2) should fail")
	}
	if _, err := KAryTorus(3, 0); err == nil {
		t.Fatal("KAryTorus(3,0) should fail")
	}
}

// TestFamiliesSortedByKey pins the family table's order: keys strictly
// increasing, so Families and Parse iterate in key order and no key
// appears twice.
func TestFamiliesSortedByKey(t *testing.T) {
	for i := 1; i < len(families); i++ {
		if families[i-1].Key >= families[i].Key {
			t.Fatalf("family %q listed after %q: the table must be sorted by key, without duplicates",
				families[i].Key, families[i-1].Key)
		}
	}
}

// TestRegistryParse pins name round-trips through the registry for
// every family, plus rejection of non-family names.
func TestRegistryParse(t *testing.T) {
	good := map[string]struct {
		family string
		n      int
		gamma  int
	}{
		"Q6":     {"Q", 64, 6},
		"Q5":     {"Q", 32, 4},
		"SQ4":    {"SQ", 16, 4},
		"H3":     {"H", 19, 6},
		"T4x4":   {"T", 16, 4},
		"T3x3x3": {"T", 27, 6},
		"TQ3":    {"TQ", 8, 2},
		"TQ4":    {"TQ", 16, 4},
		"TQ5":    {"TQ", 32, 4},
		"KT4x2":  {"KT", 16, 4},
		"KT3x3":  {"KT", 27, 6},
	}
	for name, want := range good {
		in, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if in.FamilyKey != want.family || in.N != want.n || in.Gamma != want.gamma || in.Name != name {
			t.Fatalf("Parse(%q) = {%s %s N=%d γ=%d}, want {%s N=%d γ=%d}",
				name, in.FamilyKey, in.Name, in.N, in.Gamma, want.family, want.n, want.gamma)
		}
	}
	for _, name := range []string{"", "X9", "TQ", "KT4", "KT4x", "T", "Q", "SQ", "TQx", "KT4x2x2", "Z3x3"} {
		if _, err := Parse(name); err == nil {
			t.Fatalf("Parse(%q) should fail", name)
		}
	}
}

// TestParseNetwork pins the command-line spelling of network names: any
// case resolves to the canonical graph, and an unknown name's error
// lists the registered families.
func TestParseNetwork(t *testing.T) {
	for name, want := range map[string]string{
		"q6": "Q6", "Q6": "Q6", "sq4": "SQ4", "h3": "H3",
		"t4X4": "T4x4", "tq4": "TQ4", "kt4x2": "KT4x2", "KT4X2": "KT4x2",
	} {
		g, err := ParseNetwork(name)
		if err != nil {
			t.Fatalf("ParseNetwork(%q): %v", name, err)
		}
		if g.Name() != want {
			t.Fatalf("ParseNetwork(%q) built %s, want %s", name, g.Name(), want)
		}
	}
	_, err := ParseNetwork("nope")
	if err == nil || !strings.Contains(err.Error(), "KT..., Q...") {
		t.Fatalf("ParseNetwork(\"nope\") = %v, want an error listing the families", err)
	}
}

// TestRegistryDecomposeCompat keeps the pre-registry Decompose contract:
// dispatch on the graph's own name, verification against the passed
// graph, and a clear error for unknown names.
func TestRegistryDecomposeCompat(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.MustHypercube(4),
		topology.MustHypercube(5),
		topology.MustSquareTorus(4),
		topology.MustHexMesh(2),
		topology.MustTorusND(4, 4),
		topology.MustTwistedCube(4),
		topology.MustKAryTorus(3, 2),
	} {
		if _, err := Decompose(g); err != nil {
			t.Fatalf("Decompose(%s): %v", g.Name(), err)
		}
	}
	if _, err := Decompose(topology.Complete(5)); err == nil {
		t.Fatal("Decompose(K5) should fail")
	}
}
