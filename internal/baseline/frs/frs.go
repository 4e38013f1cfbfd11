// Package frs implements Fraigniaud's all-to-all reliable broadcast
// algorithm for hypercubes (the paper's FRS [12]): every node executes
// the RS reliable broadcast simultaneously and in lock step, and in every
// step after the first each node merges the messages received in the
// previous step before relaying the (larger) merged message. In the last
// step the merged message is shortened by the portion that would be
// returned to its originator.
//
// The aggregate behaviour is striking: at every step, every directed link
// of the cube carries exactly one merged message, so the network runs at
// 100% link utilization for the whole broadcast, and the total time is
// (γ+1)τ_S + (2^γ-1)Lτ_L — the best possible under heavy load, which is
// why FRS wins the paper's worst-case comparison (Table IV).
//
// Two complementary models are provided:
//
//   - a timing model for the discrete-event simulator: one packet per
//     directed link per step, with per-node lock-step dependencies and
//     per-step message lengths 1, 1, 2, 4, ..., 2^{γ-2}, 2^{γ-1}-1 (in
//     units of L);
//   - a content model used for delivery verification: by the
//     translation-symmetry of the lock-step execution, source s's message
//     crosses link (v, v⊕2^d) at step k iff node v⊕s sends in direction d
//     at step k in the RS broadcast from node 0. Every node provably ends
//     up with γ copies of every other node's message; the content model
//     checks it concretely.
package frs

import (
	"fmt"

	"ihc/internal/baseline/rs"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// StepLengths returns the per-step merged-message lengths in units of the
// original message length L for a Q_m broadcast: step 1 carries the
// node's own message; step k in 2..γ carries 2^{k-2} merged messages; the
// final step carries 2^{γ-1}-1 (the returned portion is removed). The
// lengths sum to 2^γ - 1 = N-1.
func StepLengths(m int) []int {
	out := make([]int, m+1)
	out[0] = 1
	for k := 2; k <= m; k++ {
		out[k-1] = 1 << uint(k-2)
	}
	out[m] = 1<<uint(m-1) - 1
	return out
}

// sends[k-1] lists, for step k of the RS broadcast from node 0 in Q_m,
// the (sender, direction) pairs. Returns are included: FRS carries them
// merged until the final-step shortening, which StepLengths accounts for.
func rsSends(m int) [][]struct {
	from topology.Node
	dir  int
} {
	b := rs.MustNew(m, 0, true)
	out := make([][]struct {
		from topology.Node
		dir  int
	}, m+1)
	for _, op := range b.Ops {
		d := topology.HypercubeDirection(op.From, op.To)
		out[op.Step-1] = append(out[op.Step-1], struct {
			from topology.Node
			dir  int
		}{op.From, d})
	}
	return out
}

// Content returns the set of sources whose message crosses the directed
// link (v, v ⊕ 2^d) at step k (1-based), excluding at the final step the
// message that would merely return to its originator. Out-of-range
// inputs are errors, not panics.
func Content(m, k int, v topology.Node, d int) ([]topology.Node, error) {
	if m < 1 || m > 20 {
		return nil, fmt.Errorf("frs: dimension %d out of range [1,20]", m)
	}
	if k < 1 || k > m+1 {
		return nil, fmt.Errorf("frs: step %d out of range [1,%d]", k, m+1)
	}
	sends := rsSends(m)
	recv := v ^ topology.Node(1<<uint(d))
	var out []topology.Node
	for _, s := range sends[k-1] {
		if s.dir != d {
			continue
		}
		src := v ^ s.from
		if k == m+1 && src == recv {
			// Final-step shortening: drop the portion returning to its
			// originator.
			continue
		}
		out = append(out, src)
	}
	return out, nil
}

// Copies computes the delivery matrix of the whole FRS broadcast from the
// content model: entry (w, s) counts the copies of s's message that w
// receives over all steps and links.
func Copies(m int) *simnet.CopyMatrix {
	n := 1 << m
	cm := simnet.NewCopyMatrix(n)
	sends := rsSends(m)
	for k := 1; k <= m+1; k++ {
		for _, s := range sends[k-1] {
			// In the broadcast from source src, node src^s.from sends to
			// src^s.from^2^d; equivalently, for every node v the link
			// (v, v^2^d) carries source v^s.from.
			for v := topology.Node(0); int(v) < n; v++ {
				src := v ^ s.from
				recv := v ^ topology.Node(1<<uint(s.dir))
				if k == m+1 && src == recv {
					continue
				}
				if src == recv {
					continue // never deliver a node its own message
				}
				cm.Add(recv, src)
			}
		}
	}
	return cm
}

// Packets returns the lock-step packet schedule for the simulator: one
// packet per directed link per step, sized by StepLengths (in flit units
// of μ per L), each depending on all of its sender's previous-step
// receptions. The packet at (step k, node v, direction d) has spec index
// (k-1)·Nγ + v·γ + d.
func Packets(m int, mu int, start simnet.Time) []simnet.PacketSpec {
	n := 1 << m
	lengths := StepLengths(m)
	idx := func(k int, v topology.Node, d int) int {
		return (k-1)*n*m + int(v)*m + d
	}
	specs := make([]simnet.PacketSpec, (m+1)*n*m)
	for k := 1; k <= m+1; k++ {
		for v := topology.Node(0); int(v) < n; v++ {
			for d := 0; d < m; d++ {
				spec := simnet.PacketSpec{
					ID:    simnet.PacketID{Source: v, Channel: d, Seq: k},
					Route: []topology.Node{v, v ^ topology.Node(1<<uint(d))},
					Flits: lengths[k-1] * mu,
				}
				if k == 1 {
					spec.Inject = start
				} else {
					after := make([]int, m)
					for j := 0; j < m; j++ {
						after[j] = idx(k-1, v^topology.Node(1<<uint(j)), j)
					}
					spec.After = after
				}
				specs[idx(k, v, d)] = spec
			}
		}
	}
	return specs
}

// Result is an FRS execution summary: the simulator's counters and, from
// the content model, the delivery matrix.
type Result struct {
	simnet.Result
	Copies *simnet.CopyMatrix // from the content model
}

// Run executes FRS on a fresh Q_m network. The switching mode of p is
// forced to store-and-forward (FRS is a store-and-forward algorithm).
// The delivery matrix comes from the content model when copies is true.
func Run(m int, p simnet.Params, copies bool) (*Result, error) {
	p.Mode = simnet.StoreAndForward
	g, err := topology.Hypercube(m)
	if err != nil {
		return nil, err
	}
	net, err := simnet.New(g, p)
	if err != nil {
		return nil, err
	}
	r, err := net.Run(Packets(m, p.Mu, 0), simnet.Options{})
	if err != nil {
		return nil, err
	}
	res := &Result{Result: *r}
	if copies {
		res.Copies = Copies(m)
	}
	return res, nil
}
