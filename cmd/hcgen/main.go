// Command hcgen constructs and verifies the class-Λ Hamiltonian cycle
// decompositions of the supported network families: the γ/2 edge-disjoint
// Hamiltonian cycles of hypercubes (Theorems 1-2 of the paper), square
// tori, and C-wrapped hexagonal meshes.
//
// Usage:
//
//	hcgen -net Q6           # dimension-6 hypercube
//	hcgen -net SQ8          # 8x8 torus-wrapped square mesh
//	hcgen -net H4 -verbose  # hex mesh of size 4, print full cycles
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ihc/internal/hamilton"
)

func main() {
	var (
		net     = flag.String("net", "Q4", "network: Q<m>, SQ<m>, or H<m>")
		verbose = flag.Bool("verbose", false, "print each cycle in full")
	)
	flag.Parse()

	g, err := hamilton.ParseNetwork(*net)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcgen:", err)
		os.Exit(2)
	}
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	deg, _ := g.IsRegular()
	fmt.Printf("%s: %d nodes, %d edges, degree %d\n", g.Name(), g.N(), g.M(), deg)
	fmt.Printf("decomposition: %d edge-disjoint Hamiltonian cycles (verified)\n", len(cycles))
	if unused := hamilton.UnusedEdges(g, cycles); len(unused) > 0 {
		fmt.Printf("unused edges: %d (reduced-reliability decomposition)\n", len(unused))
	} else {
		fmt.Printf("unused edges: 0 (full Hamiltonian decomposition)\n")
	}
	for i, c := range cycles {
		if *verbose {
			parts := make([]string, len(c))
			for j, v := range c {
				parts[j] = strconv.Itoa(int(v))
			}
			fmt.Printf("HC%d: %s\n", i+1, strings.Join(parts, " "))
		} else {
			fmt.Printf("HC%d: %d %d %d ... (%d nodes)\n", i+1, c[0], c[1], c[2], len(c))
		}
	}
}
