package hamilton

import (
	"fmt"
	"strings"

	"ihc/internal/topology"
)

// Family is one topology family: a parameterized class of graphs
// together with its edge-disjoint Hamiltonian cycle construction. The
// families table (builtin.go) lists every family; everything downstream
// — Decompose, the harness experiments, the command-line network parser,
// and the cross-family conformance suite — iterates it instead of a
// hard-coded family switch, so a family added to the table gets the full
// verification stack.
type Family struct {
	// Key is the short family identifier ("Q", "SQ", "H", "T", "TQ",
	// "KT"), unique in the table.
	Key string
	// Describe is a one-line human description of the family.
	Describe string
	// New validates params and returns the family member they select.
	// Invalid parameters return an error — never a panic: this is the
	// contract FuzzFamilyParams enforces.
	New func(params ...int) (*Instance, error)
	// ParseName recovers the parameters from a canonical graph name
	// (the name the family's topology constructor bakes into the
	// Graph), reporting ok=false for names of other families.
	ParseName func(name string) ([]int, bool)
	// Conformance lists small parameter sets the cross-family
	// conformance suite runs for this family.
	Conformance [][]int
}

// Instance is one concrete family member. The graph and decomposition
// are constructed lazily — New only validates parameters and computes
// the instance's invariants, so enumerating or fuzzing the registry is
// cheap even for large parameterizations.
type Instance struct {
	// FamilyKey is the owning family's Key.
	FamilyKey string
	// Name is the canonical graph name ("TQ4", "KT4x2", "Q6", ...).
	Name string
	// Params are the validated family parameters.
	Params []int
	// N is the node count.
	N int
	// Gamma is the number of directed Hamiltonian cycles (message
	// copies): twice the undirected cycle count.
	Gamma int
	// FullCover reports whether the undirected cycles cover every
	// edge of the graph (a full Hamiltonian decomposition). False for
	// odd hypercubes and twisted cubes with n != 4, which run IHC in
	// reduced-reliability mode.
	FullCover bool

	graph     func() (*topology.Graph, error)
	decompose func() ([]Cycle, error)
}

// Graph constructs the instance's graph.
func (in *Instance) Graph() (*topology.Graph, error) { return in.graph() }

// Build constructs the graph and its decomposition and verifies the
// decomposition against both the graph and the instance's declared
// invariants (Gamma, FullCover).
func (in *Instance) Build() (*topology.Graph, []Cycle, error) {
	g, err := in.graph()
	if err != nil {
		return nil, nil, err
	}
	cycles, err := in.decompose()
	if err != nil {
		return nil, nil, err
	}
	if err := VerifyDecomposition(g, cycles, in.FullCover); err != nil {
		return nil, nil, fmt.Errorf("hamilton: %s decomposition invalid: %w", in.Name, err)
	}
	if got := 2 * len(cycles); got != in.Gamma {
		return nil, nil, fmt.Errorf("hamilton: %s declared γ=%d but decomposition yields %d directed cycles", in.Name, in.Gamma, got)
	}
	return g, cycles, nil
}

// Families returns every family, sorted by key. The slice is the table
// itself; callers must not modify it.
func Families() []Family { return families }

// Parse resolves a canonical graph name ("Q6", "SQ4", "T4x4x4", "TQ5",
// "KT4x2", ...) against every family and returns the matching instance.
func Parse(name string) (*Instance, error) {
	for _, f := range families {
		if params, ok := f.ParseName(name); ok {
			return f.New(params...)
		}
	}
	return nil, fmt.Errorf("hamilton: no decomposition rule for %q", name)
}

// ParseNetwork resolves a network name as the command-line tools take
// it — case-insensitive, so "q6", "kt4x2" and "T4X4" all name graphs —
// to its graph. The error lists the families.
func ParseNetwork(name string) (*topology.Graph, error) {
	// Canonical names are uppercase except the 'x' dimension
	// separators ("KT4x2", "T4x4").
	in, err := Parse(strings.ReplaceAll(strings.ToUpper(name), "X", "x"))
	if err != nil {
		keys := make([]string, 0, 8)
		for _, f := range families {
			keys = append(keys, f.Key+"...")
		}
		return nil, fmt.Errorf("cannot parse network %q (registered families: %s)", name, strings.Join(keys, ", "))
	}
	return in.Graph()
}

// Decompose returns the Hamiltonian decomposition for any graph of a
// family in the table, dispatching on the graph's constructor name. The
// result is fully verified against g before being returned: every
// cycle Hamiltonian, pairwise edge-disjoint, and covering all edges
// when the family declares full cover (odd hypercubes and most twisted
// cubes legitimately leave edges unused, as in the paper).
func Decompose(g *topology.Graph) ([]Cycle, error) {
	in, err := Parse(g.Name())
	if err != nil {
		return nil, err
	}
	cycles, err := in.decompose()
	if err != nil {
		return nil, err
	}
	if err := VerifyDecomposition(g, cycles, in.FullCover); err != nil {
		return nil, fmt.Errorf("hamilton: %s decomposition invalid: %w", g.Name(), err)
	}
	return cycles, nil
}
