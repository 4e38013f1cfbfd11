// Clock synchronization over ATA reliable broadcast — one of the paper's
// motivating applications (Section I cites Krishna/Shin/Butler and
// Lamport/Melliar-Smith).
//
// Every node holds a local clock with bounded skew. In each
// synchronization round, all nodes broadcast their clock reading with the
// IHC algorithm; every node then applies the classic fault-tolerant
// averaging function: sort the N readings, discard the t highest and t
// lowest (so that values forged by up to t Byzantine nodes cannot drag
// the average outside the range of correct readings), and adopt the mean
// of the rest. Faulty nodes report wildly wrong clocks; the example shows
// the fault-free nodes' skew collapsing anyway.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"ihc"
	"ihc/internal/fault"
)

const (
	meshSize   = 4    // SQ4: 16 nodes, γ = 4
	rounds     = 4    // synchronization rounds
	tByzantine = 1    // faulty clocks (t <= Dolev bound for γ=4 unsigned)
	initSkew   = 1000 // initial clock skew, µs
)

func main() {
	x, err := ihc.NewSquareTorus(meshSize)
	if err != nil {
		log.Fatal(err)
	}
	n := x.N()
	rng := rand.New(rand.NewSource(7))

	// Initial clocks: a common base plus bounded per-node skew.
	clocks := make([]float64, n)
	for i := range clocks {
		clocks[i] = 1_000_000 + rng.Float64()*initSkew
	}
	// Byzantine nodes (their clocks are graded out of the skew metric).
	plan, err := fault.RandomNodeFaults(n, tByzantine, fault.Byzantine, 3)
	if err != nil {
		log.Fatal(err)
	}
	faulty := make([]bool, n)
	for _, v := range plan.FaultyNodes() {
		faulty[v] = true
	}
	isFaulty := func(v int) bool { return faulty[v] }
	fmt.Printf("network %s, %d Byzantine node(s): %v\n", x.Graph(), tByzantine, plan.FaultyNodes())
	fmt.Printf("round  max skew among fault-free nodes (µs)\n")
	fmt.Printf("  0    %.2f\n", skew(clocks, isFaulty))

	for r := 1; r <= rounds; r++ {
		// The ATA reliable broadcast distributes all clock readings. The
		// IHC run itself is validated (γ copies everywhere); the fault
		// plan then decides what each receiver's copies look like.
		res, err := x.Run(ihc.Config{Eta: 2, Params: ihc.DefaultParams()})
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
			log.Fatal(err)
		}

		// Each fault-free node assembles the readings it can trust: a
		// faulty source's value is arbitrary (modeled as an outlier); a
		// fault-free source's value arrives intact thanks to the γ-copy
		// redundancy (verified above).
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			if isFaulty(v) {
				next[v] = clocks[v] // faulty nodes do whatever
				continue
			}
			readings := make([]float64, 0, n)
			for s := 0; s < n; s++ {
				val := clocks[s]
				if isFaulty(s) {
					// Byzantine clock: arbitrary per receiver.
					val = clocks[s] + (rng.Float64()-0.5)*1e6
				}
				readings = append(readings, val)
			}
			next[v] = faultTolerantAverage(readings, tByzantine)
		}
		clocks = next
		fmt.Printf("  %d    %.2f\n", r, skew(clocks, isFaulty))
	}

	if s := skew(clocks, isFaulty); s > 0.1 {
		log.Fatalf("clocks did not converge: skew %.4f µs", s)
	}
	fmt.Println("fault-free clocks converged despite Byzantine readings")
}

// faultTolerantAverage discards the t lowest and t highest readings and
// averages the remainder.
func faultTolerantAverage(readings []float64, t int) float64 {
	sort.Float64s(readings)
	trimmed := readings[t : len(readings)-t]
	sum := 0.0
	for _, v := range trimmed {
		sum += v
	}
	return sum / float64(len(trimmed))
}

// skew returns max-min over fault-free nodes.
func skew(clocks []float64, isFaulty func(int) bool) float64 {
	lo, hi := 0.0, 0.0
	first := true
	for v, c := range clocks {
		if isFaulty(v) {
			continue
		}
		if first || c < lo {
			lo = c
		}
		if first || c > hi {
			hi = c
		}
		first = false
	}
	return hi - lo
}
