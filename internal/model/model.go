// Package model implements the closed-form execution-time analysis of
// Lee & Shin's comparative study (Section VI): the best-case (ρ = 0,
// dedicated network) times of Table II, the η = μ = 2 instantiation of
// Table III, the heavy-traffic worst-case times of Table IV, the Theorem 4
// optimality bound, the crossover conditions under which the IHC
// algorithm beats the alternatives, and the paper's headline numbers
// (Dally's 20 ns cut-through time on Q10 and Q16).
//
// All times are exact integer ticks; the mesh formulas use the exact hop
// counts (2m-5 cut-throughs for KS on a hex mesh of size m, 2√N-6 for VSQ
// on an m x m torus) rather than the paper's √N approximations, so
// simulator results can be asserted equal to these values.
package model

import (
	"fmt"
	"math"

	"ihc/internal/simnet"
)

// Params are the simulator's timing parameters; the closed forms read
// τ_S, α, μ and D.
type Params = simnet.Params

// Log2 returns log2 of a power of two; it panics otherwise (the hypercube
// algorithms are only defined for N = 2^m).
func Log2(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("model: %d is not a positive power of two", n))
	}
	m := 0
	for n > 1 {
		n >>= 1
		m++
	}
	return m
}

// --- Table II: best case, dedicated network (ρ = 0) ---

// IHCBest returns the Table II execution time of the IHC algorithm:
// η(τ_S + μα + (N-2)α) — η stages, each one startup, one transmission,
// and N-2 cut-throughs.
func IHCBest(p Params, n, eta int) simnet.Time {
	return simnet.Time(eta) * (p.TauS + p.PacketTime() + simnet.Time(n-2)*p.Alpha)
}

// IHCBestOverlapped returns the modified IHC algorithm's time: stages
// overlap by μ-1 time steps, saving (μ-1)²α in total (Section VI-A).
func IHCBestOverlapped(p Params, n, eta int) simnet.Time {
	save := simnet.Time((p.Mu-1)*(p.Mu-1)) * p.Alpha
	return IHCBest(p, n, eta) - save
}

// VRSATABest returns the Table II time of VRS-ATA on a hypercube with N
// nodes: N((log2 N - 1)(τ_S + μα) + 2α) — N sequential VRS broadcasts,
// each with a longest path of γ-1 store-and-forwards and 2 cut-throughs.
func VRSATABest(p Params, n int) simnet.Time {
	gamma := Log2(n)
	return simnet.Time(n) * (simnet.Time(gamma-1)*(p.TauS+p.PacketTime()) + 2*p.Alpha)
}

// KSATABest returns the Table II time of KS-ATA on a hex mesh of size m
// (N = 3m(m-1)+1): N(3(τ_S + μα) + (2m-5)α) — the longest KS path has 3
// store-and-forwards and 2m-5 cut-throughs.
func KSATABest(p Params, m int) simnet.Time {
	n := 3*m*(m-1) + 1
	return simnet.Time(n) * (3*(p.TauS+p.PacketTime()) + simnet.Time(2*m-5)*p.Alpha)
}

// VSQATABest returns the Table II time of VSQ-ATA on an m x m torus
// (N = m²): N(3(τ_S + μα) + (2m-6)α).
func VSQATABest(p Params, m int) simnet.Time {
	n := m * m
	return simnet.Time(n) * (3*(p.TauS+p.PacketTime()) + simnet.Time(2*m-6)*p.Alpha)
}

// FRSBest returns the Table II time of Fraigniaud's store-and-forward
// lock-step ATA algorithm on a hypercube: (log2 N + 1)τ_S + (N-1)μα.
func FRSBest(p Params, n int) simnet.Time {
	gamma := Log2(n)
	return simnet.Time(gamma+1)*p.TauS + simnet.Time(n-1)*p.PacketTime()
}

// --- Table IV: worst case (heavy traffic, all hops buffered + queued) ---

// IHCWorst returns η(N-1)(τ_S + μα + D).
func IHCWorst(p Params, n, eta int) simnet.Time {
	return simnet.Time(eta) * simnet.Time(n-1) * (p.TauS + p.PacketTime() + p.D)
}

// VRSATAWorst returns N(log2 N + 1)(τ_S + μα + D).
func VRSATAWorst(p Params, n int) simnet.Time {
	gamma := Log2(n)
	return simnet.Time(n) * simnet.Time(gamma+1) * (p.TauS + p.PacketTime() + p.D)
}

// KSATAWorst returns N(2m-2)(τ_S + μα + D): the KS longest path has
// 3 + (2m-5) = 2m-2 hops, every one buffered and queued.
func KSATAWorst(p Params, m int) simnet.Time {
	n := 3*m*(m-1) + 1
	return simnet.Time(n) * simnet.Time(2*m-2) * (p.TauS + p.PacketTime() + p.D)
}

// VSQATAWorst returns N(2m-3)(τ_S + μα + D) for the m x m torus.
func VSQATAWorst(p Params, m int) simnet.Time {
	n := m * m
	return simnet.Time(n) * simnet.Time(2*m-3) * (p.TauS + p.PacketTime() + p.D)
}

// FRSWorst returns (log2 N + 1)(τ_S + D) + (N-1)μα: FRS pays the queueing
// delay only once per step, which is why it wins under saturation.
func FRSWorst(p Params, n int) simnet.Time {
	gamma := Log2(n)
	return simnet.Time(gamma+1)*(p.TauS+p.D) + simnet.Time(n-1)*p.PacketTime()
}

// --- Theorem 4 and crossover analysis ---

// OptimalATATime returns the Theorem 4 lower bound τ_S + (N-1)α on any
// ATA reliable broadcast in a dedicated network: γN(N-1) packets divided
// evenly over N nodes' γ outgoing links means each link carries N-1
// packets of α each after one startup. IHC with η = μ = 1 achieves it.
func OptimalATATime(p Params, n int) simnet.Time {
	return p.TauS + simnet.Time(n-1)*p.Alpha
}

// JungSakhoBound returns τ_S + (N-1)μα: the per-link load lower bound
// on γ-copy reliable ATA broadcast over a γ-cycle decomposition,
// generalizing Theorem 4 to μ-packet messages. Jung & Sakho's
// construction gives γ = 2n edge-disjoint Hamiltonian cycles on the
// k-ary n-dimensional torus, so every node sources γ(N-1) message
// copies of μα each over exactly γ dedicated outgoing links: some link
// carries N-1 messages after one startup. At μ = 1 this is exactly
// OptimalATATime; IHC with η = μ meets it up to the fixed pipelining
// term (η-1)(τ_S + μα), independent of N.
func JungSakhoBound(p Params, n int) simnet.Time {
	return p.TauS + simnet.Time(n-1)*p.PacketTime()
}

// MaxEtaBeatingCutThroughBaselines returns the largest interleaving
// distance η for which IHC is faster than all other cut-through
// ATA algorithms (Section VI-A): η <= min{log2 N - 1, 2√((N-1)/3) - 2,
// 2√N - 3}. The bound is evaluated with the paper's real-valued square
// roots, floored.
func MaxEtaBeatingCutThroughBaselines(n int) int {
	hyper := float64(ilog2floor(n)) - 1
	hex := 2*math.Sqrt(float64(n-1)/3) - 2
	sq := 2*math.Sqrt(float64(n)) - 3
	return int(math.Floor(math.Min(hyper, math.Min(hex, sq))))
}

func ilog2floor(n int) int {
	m := 0
	for n > 1 {
		n >>= 1
		m++
	}
	return m
}

// IHCBeatsFRS reports whether, at η = μ and ρ = 0, IHC is faster than FRS.
// The paper's sufficient condition is τ_S >= μ²α/2.
func IHCBeatsFRS(p Params) bool {
	return 2*p.TauS >= simnet.Time(p.Mu*p.Mu)*p.Alpha
}

// --- Headline numbers (Section VI-A) ---

// HeadlineParams are the constants the paper quotes: Dally's 20 ns
// cut-through time, τ_S = 0.5 ms, with the dedicated η = μ = 2 regime.
// One tick = 1 ns.
func HeadlineParams() Params {
	return Params{TauS: 500_000, Alpha: 20, Mu: 2, D: 0}
}

// Headline describes one of the paper's quoted data points.
type Headline struct {
	Name        string
	N           int
	Gamma       int
	Packets     int64       // γN(N-1) packets sent and received
	Time        simnet.Time // IHC execution time in ns (includes 2τ_S)
	TimeLessTau simnet.Time // the "2τ_S + X" X part, in ns
}

// Headlines returns the paper's two quoted configurations: a 1024-node
// Q10 (2τ_S + 0.02 ms) and a 64K-node Q16 (2τ_S + 1.31 ms; with
// τ_S = 0.5 ms that is 1.81 ms for 68.7 billion packets).
func Headlines() []Headline {
	p := HeadlineParams()
	out := make([]Headline, 0, 2)
	for _, m := range []int{10, 16} {
		n := 1 << m
		t := IHCBest(p, n, 2)
		out = append(out, Headline{
			Name:        fmt.Sprintf("Q%d", m),
			N:           n,
			Gamma:       m,
			Packets:     int64(m) * int64(n) * int64(n-1),
			Time:        t,
			TimeLessTau: t - 2*p.TauS,
		})
	}
	return out
}
