// Package ihc is a production-quality Go implementation of Lee & Shin's
// IHC algorithm for interleaved all-to-all (ATA) reliable broadcast on
// meshes and hypercubes (ICPP 1990 / IEEE TPDS 1994), together with
// everything the paper's evaluation depends on: the class-Λ Hamiltonian
// cycle decompositions (Theorems 1-2), a virtual cut-through / wormhole /
// store-and-forward network simulator with the paper's exact timing
// model, the baseline algorithms it compares against (VRS-ATA, KS-ATA,
// VSQ-ATA, FRS), the closed-form analysis of Tables II-IV, and a
// fault-injection layer for the reliability claims.
//
// This file is the public facade. Quick start:
//
//	x, err := ihc.NewHypercube(6)            // Q6: 64 nodes, γ = 6
//	res, err := x.Run(ihc.Config{
//	        Eta:    2,                        // interleaving distance η
//	        Params: ihc.DefaultParams(),      // τ_S, α, μ, D
//	})
//	// res.Finish == η(τ_S + μα + (N-2)α); res.Contentions == 0;
//	// res.Copies.VerifyATA(6) == nil: every node holds 6 copies of
//	// every other node's message, one per directed Hamiltonian cycle.
//
// The deeper layers are importable by code in this module:
// internal/topology (graphs), internal/hamilton (HC decompositions),
// internal/simnet (the simulator), internal/core (the algorithm),
// internal/baseline/* (the competing algorithms), internal/model (the
// closed forms), internal/reliable and internal/fault (fault tolerance),
// and internal/harness (the experiment suite reproducing every table and
// figure of the paper).
package ihc

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Re-exported types: the facade's vocabulary is the core and simulator
// vocabulary.
type (
	// IHC is a ready-to-run instance of the algorithm on one network.
	IHC = core.IHC
	// Config selects η, timing parameters, and execution options.
	Config = core.Config
	// Result reports times, contention and delivery counters.
	Result = core.Result
	// Params is the network timing model (τ_S, α, μ, D, mode, ρ).
	Params = simnet.Params
	// Time is simulated time in ticks.
	Time = simnet.Time
	// Graph is an undirected interconnection network.
	Graph = topology.Graph
	// Node identifies a network node.
	Node = topology.Node
	// Cycle is a Hamiltonian cycle as a node sequence.
	Cycle = hamilton.Cycle
)

// DefaultParams returns the timing parameters used throughout the
// repository's experiments: τ_S = 100, α = 20, μ = 2, D = 37 ticks,
// virtual cut-through switching, no background load.
func DefaultParams() Params {
	return Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Mode: simnet.VirtualCutThrough}
}

// HeadlineParams returns the paper's Section VI constants at 1 tick =
// 1 ns: Dally's α = 20 ns cut-through time and τ_S = 0.5 ms.
func HeadlineParams() Params { return model.HeadlineParams() }

// New builds an IHC instance for any supported class-Λ network by
// constructing and verifying its Hamiltonian decomposition. Supported
// graphs are those produced by Hypercube, SquareTorus and HexMesh (the
// decomposition is dispatched on the graph's family).
func New(g *Graph) (*IHC, error) {
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		return nil, err
	}
	return core.New(g, cycles)
}

// NewWithCycles builds an IHC instance from an explicit set of
// edge-disjoint Hamiltonian cycles, for networks outside the built-in
// families. The cycles are fully verified.
func NewWithCycles(g *Graph, cycles []Cycle) (*IHC, error) {
	return core.New(g, cycles)
}

// NewHypercube returns the algorithm on the m-dimensional binary
// hypercube Q_m (m >= 2). Even m uses all links (γ = m); odd m leaves one
// perfect matching unused (γ = m-1), per the paper.
func NewHypercube(m int) (*IHC, error) {
	if m < 2 {
		return nil, fmt.Errorf("ihc: hypercube dimension must be >= 2, got %d", m)
	}
	g, err := topology.Hypercube(m)
	if err != nil {
		return nil, err
	}
	return New(g)
}

// NewSquareTorus returns the algorithm on the m x m torus-wrapped square
// mesh SQ_m (m >= 3), γ = 4.
func NewSquareTorus(m int) (*IHC, error) {
	if m < 3 {
		return nil, fmt.Errorf("ihc: square torus size must be >= 3, got %d", m)
	}
	g, err := topology.SquareTorus(m)
	if err != nil {
		return nil, err
	}
	return New(g)
}

// NewHexMesh returns the algorithm on the C-wrapped hexagonal mesh H_m
// (m >= 2, N = 3m(m-1)+1 nodes), γ = 6.
func NewHexMesh(m int) (*IHC, error) {
	if m < 2 {
		return nil, fmt.Errorf("ihc: hex mesh size must be >= 2, got %d", m)
	}
	g, err := topology.HexMesh(m)
	if err != nil {
		return nil, err
	}
	return New(g)
}

// NewTorusND returns the algorithm on the d-dimensional torus
// C_k1 x ... x C_kd (each ki >= 3), γ = 2d — the general "regular mesh"
// of class Λ, decomposed into d Hamiltonian cycles by the generalized
// Lemma 2 (Foregger's theorem). See hamilton.MultiTorus for the
// dimension mixes the constructive engine supports.
func NewTorusND(dims ...int) (*IHC, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("ihc: torus needs at least one dimension")
	}
	for _, k := range dims {
		if k < 3 {
			return nil, fmt.Errorf("ihc: torus dimensions must be >= 3, got %v", dims)
		}
	}
	g, err := topology.TorusND(dims...)
	if err != nil {
		return nil, err
	}
	return New(g)
}
