package hamilton

import (
	"fmt"

	"ihc/internal/topology"
)

// This file holds the family table. Each entry binds a topology
// constructor to its decomposition rule and declares the invariants (N,
// γ, full cover) that Build verifies. The per-family size caps keep
// Build tractable (the topology layer caps node counts at 2^22 anyway)
// while New stays cheap: it only validates.

// one adapts single-integer families to the params-slice contract.
func one(params []int) (int, error) {
	if len(params) != 1 {
		return 0, fmt.Errorf("hamilton: family takes exactly 1 parameter, got %d", len(params))
	}
	return params[0], nil
}

// scanOne adapts scan to the ParseName contract.
func scanOne(prefix string) func(string) ([]int, bool) {
	return func(name string) ([]int, bool) {
		var m int
		if !scan(name, prefix, &m) {
			return nil, false
		}
		return []int{m}, true
	}
}

// families is the table of every family, sorted by key.
var families = []Family{
	{
		Key:      "H",
		Describe: "C-wrapped hexagonal mesh H_m: N=3m(m-1)+1, γ=6",
		New: func(params ...int) (*Instance, error) {
			m, err := one(params)
			if err != nil {
				return nil, err
			}
			if m < 2 || m > 1180 {
				return nil, fmt.Errorf("hamilton: hex mesh size %d out of range [2,1180]", m)
			}
			return &Instance{
				FamilyKey: "H",
				Name:      fmt.Sprintf("H%d", m),
				Params:    []int{m},
				N:         topology.HexMeshSize(m),
				Gamma:     6,
				FullCover: true,
				graph:     func() (*topology.Graph, error) { return topology.HexMesh(m) },
				decompose: func() ([]Cycle, error) { return HexMesh(m) },
			}, nil
		},
		ParseName:   scanOne("H"),
		Conformance: [][]int{{2}, {3}},
	},
	{
		Key:      "KT",
		Describe: "k-ary n-dimensional torus: N=k^n, γ=2n (Jung–Sakho ATA bound)",
		New: func(params ...int) (*Instance, error) {
			if len(params) != 2 {
				return nil, fmt.Errorf("hamilton: k-ary torus takes exactly 2 parameters (k, n), got %d", len(params))
			}
			k, n := params[0], params[1]
			if k < 3 {
				return nil, fmt.Errorf("hamilton: k-ary torus arity %d must be >= 3", k)
			}
			if n < 1 {
				return nil, fmt.Errorf("hamilton: k-ary torus needs >= 1 dimension, got %d", n)
			}
			size := 1
			for i := 0; i < n; i++ {
				if size > 1<<22/k {
					return nil, fmt.Errorf("hamilton: KAryTorus(%d,%d) exceeds the 2^22-node cap", k, n)
				}
				size *= k
			}
			return &Instance{
				FamilyKey: "KT",
				Name:      fmt.Sprintf("KT%dx%d", k, n),
				Params:    []int{k, n},
				N:         size,
				Gamma:     2 * n,
				FullCover: true,
				graph:     func() (*topology.Graph, error) { return topology.KAryTorus(k, n) },
				decompose: func() ([]Cycle, error) { return KAryTorus(k, n) },
			}, nil
		},
		ParseName: func(name string) ([]int, bool) {
			k, n, ok := topology.KAryDims(name)
			if !ok {
				return nil, false
			}
			return []int{k, n}, true
		},
		Conformance: [][]int{{3, 2}, {4, 2}, {3, 3}},
	},
	{
		Key:      "Q",
		Describe: "binary hypercube Q_m: N=2^m, γ=2⌊m/2⌋ (odd m leaves a matching unused)",
		New: func(params ...int) (*Instance, error) {
			m, err := one(params)
			if err != nil {
				return nil, err
			}
			if m < 2 || m > 22 {
				return nil, fmt.Errorf("hamilton: hypercube dimension %d out of range [2,22]", m)
			}
			return &Instance{
				FamilyKey: "Q",
				Name:      fmt.Sprintf("Q%d", m),
				Params:    []int{m},
				N:         1 << m,
				Gamma:     2 * (m / 2),
				FullCover: m%2 == 0,
				graph:     func() (*topology.Graph, error) { return topology.Hypercube(m) },
				decompose: func() ([]Cycle, error) { return Hypercube(m) },
			}, nil
		},
		ParseName:   scanOne("Q"),
		Conformance: [][]int{{2}, {3}, {4}, {5}, {6}},
	},
	{
		Key:      "SQ",
		Describe: "torus-wrapped square mesh SQ_m: N=m², γ=4",
		New: func(params ...int) (*Instance, error) {
			m, err := one(params)
			if err != nil {
				return nil, err
			}
			if m < 3 || m > 2048 {
				return nil, fmt.Errorf("hamilton: square torus size %d out of range [3,2048]", m)
			}
			return &Instance{
				FamilyKey: "SQ",
				Name:      fmt.Sprintf("SQ%d", m),
				Params:    []int{m},
				N:         m * m,
				Gamma:     4,
				FullCover: true,
				graph:     func() (*topology.Graph, error) { return topology.SquareTorus(m) },
				decompose: func() ([]Cycle, error) { return SquareTorus(m) },
			}, nil
		},
		ParseName:   scanOne("SQ"),
		Conformance: [][]int{{3}, {4}, {5}},
	},
	{
		Key:      "T",
		Describe: "mixed-radix torus C_k1 x ... x C_kd: N=∏ki, γ=2d",
		New: func(params ...int) (*Instance, error) {
			if len(params) == 0 {
				return nil, fmt.Errorf("hamilton: torus needs at least one dimension")
			}
			n := 1
			name := "T"
			for i, k := range params {
				if k < 3 {
					return nil, fmt.Errorf("hamilton: torus dimension %d is %d, need >= 3", i, k)
				}
				if n > 1<<22/k {
					return nil, fmt.Errorf("hamilton: torus %v exceeds the 2^22-node cap", params)
				}
				n *= k
				if i > 0 {
					name += "x"
				}
				name += fmt.Sprintf("%d", k)
			}
			dims := append([]int(nil), params...)
			return &Instance{
				FamilyKey: "T",
				Name:      name,
				Params:    dims,
				N:         n,
				Gamma:     2 * len(dims),
				FullCover: true,
				graph:     func() (*topology.Graph, error) { return topology.TorusND(dims...) },
				decompose: func() ([]Cycle, error) { return MultiTorus(dims...) },
			}, nil
		},
		ParseName:   func(name string) ([]int, bool) { return topology.TorusDims(name) },
		Conformance: [][]int{{3, 3}, {4, 4}, {3, 3, 3}},
	},
	{
		Key:      "TQ",
		Describe: "twisted cube TQ_n: N=2^n, two edge-disjoint HCs (γ=4; γ=2 for n=3)",
		New: func(params ...int) (*Instance, error) {
			n, err := one(params)
			if err != nil {
				return nil, err
			}
			if n < 3 || n > 22 {
				return nil, fmt.Errorf("hamilton: twisted cube dimension %d out of range [3,22]", n)
			}
			gamma := 4
			if n == 3 {
				gamma = 2
			}
			return &Instance{
				FamilyKey: "TQ",
				Name:      fmt.Sprintf("TQ%d", n),
				Params:    []int{n},
				N:         1 << n,
				Gamma:     gamma,
				// TQ_4 is 4-regular, so its two HCs use all 2^5
				// edges; every other size leaves edges unused.
				FullCover: n == 4,
				graph:     func() (*topology.Graph, error) { return topology.TwistedCube(n) },
				decompose: func() ([]Cycle, error) { return TwistedCube(n) },
			}, nil
		},
		ParseName: func(name string) ([]int, bool) {
			n, ok := topology.TwistedDim(name)
			if !ok {
				return nil, false
			}
			return []int{n}, true
		},
		Conformance: [][]int{{3}, {4}, {5}, {6}},
	},
}
