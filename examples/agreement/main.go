// Byzantine agreement with signed messages over ATA reliable broadcast —
// the paper's primary motivation (Section I cites Lamport/Shostak/Pease
// and Dolev, and Rivest et al. for signatures).
//
// Every node proposes a value and signs it; the IHC ATA reliable
// broadcast delivers γ copies of every proposal to every node over
// edge-disjoint Hamiltonian-cycle paths. Faulty relays corrupt what they
// forward — but cannot forge signatures — and faulty proposers may be
// two-faced. Each fault-free node discards copies whose signature fails
// and decides on the signed-consistent value per proposer; the example
// checks interactive consistency: all fault-free nodes decide the same
// vector, with the correct value in every fault-free proposer's slot.
package main

import (
	"fmt"
	"log"

	"ihc"
	"ihc/internal/fault"
	"ihc/internal/reliable"
)

const (
	cubeDim = 4 // Q4: 16 nodes, γ = 4
	tFaults = 3 // up to γ-1 = 3 faulty nodes with signed messages
)

func main() {
	x, err := ihc.NewHypercube(cubeDim)
	if err != nil {
		log.Fatal(err)
	}
	n := x.N()
	gamma := x.Gamma()
	kr := reliable.NewKeyring(n, 2024)

	plan, err := fault.RandomNodeFaults(n, tFaults, fault.Corrupt, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network %s, γ = %d, signed messages, %d corrupt relays: %v\n",
		x.Graph(), gamma, tFaults, plan.FaultyNodes())
	fmt.Printf("signed-message fault bound: t <= γ-1 = %d (unsigned Dolev bound would be %d)\n",
		reliable.SignedBound(gamma), reliable.DolevBound(gamma, n))

	// Run the ATA broadcast under the fault plan and grade it with the
	// signed voter at every fault-free receiver.
	out, err := reliable.EvaluateIHC(x, plan, true, kr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free ordered pairs: %d; decided correctly: %d; wrong: %d; undecided: %d\n",
		out.Pairs, out.Correct, out.Wrong, out.Missing)

	if out.Wrong != 0 {
		log.Fatal("safety violated: a fault-free node decided a forged value")
	}
	fmt.Println("safety holds: no fault-free node ever decided a forged value —")
	fmt.Println("corrupted copies are rejected by signature")
	if out.Missing > 0 {
		// The γ Hamiltonian-cycle paths between a pair are edge-disjoint
		// but not node-disjoint across cycles, so adversarial relay
		// placements can occasionally cut every path (the paper:
		// "the probability of correct operation is high" beyond the
		// guaranteed single fault). Undecided pairs detect this and
		// would retry; they never decide wrongly.
		fmt.Printf("liveness: %d of %d pairs undecided under this placement (edge-disjoint vs\n",
			out.Missing, out.Pairs)
		fmt.Println("node-disjoint paths; such pairs detect the loss and would re-broadcast)")
	} else {
		fmt.Println("interactive consistency holds: every fault-free node decided every")
		fmt.Println("fault-free proposer's true value")
	}

	// A single faulty node is *always* tolerated (it can block at most
	// one direction of each undirected cycle).
	one := &fault.TemporalPlan{Seed: 1, Nodes: []fault.NodeFault{{Node: 7, Kind: fault.Corrupt}}}
	o1, err := reliable.EvaluateIHC(x, one, true, kr)
	if err != nil {
		log.Fatal(err)
	}
	if o1.Correct != o1.Pairs {
		log.Fatal("single-fault tolerance violated")
	}
	fmt.Println("guaranteed case: one faulty relay never disturbs any fault-free pair")

	// Contrast: the same fault plan without signatures. With t beyond
	// the Dolev bound, unsigned majority voting can be defeated.
	u, err := reliable.EvaluateIHC(x, plan, false, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without signatures the same faults leave only %.1f%% of pairs correct (%d wrong, %d undecided)\n",
		100*u.CorrectFraction(), u.Wrong, u.Missing)
	if u.Correct == u.Pairs {
		fmt.Println("(this particular placement did not defeat majority voting; more corrupt relays would)")
	}

	// And a two-faced proposer: signed receivers detect the inconsistency.
	twoFaced := &fault.TemporalPlan{Seed: 9, Nodes: []fault.NodeFault{{Node: 3, Kind: fault.Byzantine}}}
	o, err := reliable.EvaluateIHC(x, twoFaced, true, kr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-faced proposer (node 3): fault-free pairs all correct: %v\n", o.Correct == o.Pairs)
}
