// Package rs implements Ramanathan & Shin's reliable broadcast algorithm
// for hypercubes (the paper's RS [20]), its virtual cut-through conversion
// VRS, and the serialized all-to-all variant VRS-ATA.
//
// RS structure: to broadcast from a source s in Q_γ, s first sends a copy
// to each of its γ neighbors (step 1). The neighbor in direction i then
// performs the recursive-doubling broadcast over the rotated direction
// sequence i+1, i+2, ..., i+γ-1, i (steps 2..γ+1): in each step every
// node holding tree i's copy sends it in the step's direction. Each tree
// spans the whole cube, so every node receives γ copies — one per tree,
// over node-disjoint paths — in γ+1 steps. The sends of the final step
// that would return copies to the source are optional and omitted by
// default (Table I's bold entries).
//
// VRS conversion: a node that received a copy in the previous step and
// sends it in the next direction "forwards" the packet — a cut-through.
// A node that sends an additional copy in a later step "redirects" it — a
// store-and-forward. The broadcast therefore decomposes into columns
// (Table I): maximal chains that start with an injection or redirection
// and continue through forwards. Each column is one simulated packet;
// redirection columns causally depend on the column that delivered the
// copy to their head node.
package rs

import (
	"fmt"

	"ihc/internal/baseline/atarun"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Op is a single send-receive operation of the RS algorithm.
type Op struct {
	From, To topology.Node
	Step     int  // 1-based algorithm step
	Tree     int  // direction index of the spanning tree
	Column   int  // index into the broadcast's column list
	Return   bool // final-step send returning a copy to the source
}

// Column is a maximal cut-through chain of the VRS conversion: the head
// hop Route[0]->Route[1] is an injection (Parent < 0) or a redirection
// (Parent is the column that delivered the copy to Route[0]); every later
// hop is a forward, performed as a cut-through.
type Column struct {
	Tree     int
	Route    []topology.Node
	HeadStep int // step of the head hop
	Parent   int // index of parent column, -1 for source-injected columns
}

// Broadcast is the full RS/VRS schedule for one source.
type Broadcast struct {
	M       int // hypercube dimension γ
	Src     topology.Node
	Columns []Column
	Ops     []Op
	// parent[i][v] is the node that delivered tree i's copy to v
	// (v != Src), tracing the γ node-disjoint paths.
	parent [][]topology.Node
	// includeReturns records whether the optional final-step returns to
	// the source were generated.
	includeReturns bool
}

// New computes the RS broadcast schedule from src in Q_m. When
// includeReturns is true, the optional final-step sends that return
// copies to the source are included (as in the unabridged Table I).
// Out-of-range dimensions or sources are errors, not panics — bad input
// must not crash a long-running process.
func New(m int, src topology.Node, includeReturns bool) (*Broadcast, error) {
	if m < 1 || m > 20 {
		return nil, fmt.Errorf("rs: dimension %d out of range [1,20]", m)
	}
	n := 1 << m
	if int(src) < 0 || int(src) >= n {
		return nil, fmt.Errorf("rs: source %d not in Q%d", src, m)
	}
	b := &Broadcast{M: m, Src: src, includeReturns: includeReturns}
	for i := 0; i < m; i++ {
		b.buildTree(i)
	}
	return b, nil
}

// MustNew is New for statically known-good inputs (the
// regexp.MustCompile idiom).
func MustNew(m int, src topology.Node, includeReturns bool) *Broadcast {
	b, err := New(m, src, includeReturns)
	if err != nil {
		panic(err)
	}
	return b
}

// buildTree generates tree i's sends, columns, and parent pointers.
func (b *Broadcast) buildTree(i int) {
	m := 1 << b.M
	parent := make([]topology.Node, m)
	for v := range parent {
		parent[v] = -1
	}
	// coveredStep[v] and coveredCol[v]: when and through which column v
	// obtained tree i's copy. The source holds it from "step 0".
	coveredStep := make([]int, m)
	coveredCol := make([]int, m)
	for v := range coveredStep {
		coveredStep[v] = -1
	}
	coveredStep[b.Src] = 0
	coveredCol[b.Src] = -1

	addOp := func(from, to topology.Node, step, col int, ret bool) {
		b.Ops = append(b.Ops, Op{From: from, To: to, Step: step, Tree: i, Column: col, Return: ret})
	}

	// Step 1: injection. Starts tree i's first column.
	u := b.Src ^ topology.Node(1<<i)
	col0 := len(b.Columns)
	b.Columns = append(b.Columns, Column{Tree: i, Route: []topology.Node{b.Src, u}, HeadStep: 1, Parent: -1})
	addOp(b.Src, u, 1, col0, false)
	parent[u] = b.Src
	coveredStep[u], coveredCol[u] = 1, col0

	// Steps 2..γ+1: recursive doubling over directions i+1, ..., i+γ.
	holders := []topology.Node{u}
	for step := 2; step <= b.M+1; step++ {
		d := topology.Node(1 << uint((i+step-1)%b.M))
		newHolders := make([]topology.Node, 0, len(holders))
		for _, w := range holders {
			y := w ^ d
			if y == b.Src {
				// Optional return of a copy to the originator.
				if b.includeReturns {
					c := len(b.Columns)
					if coveredStep[w] == step-1 {
						c = coveredCol[w]
						b.Columns[c].Route = append(b.Columns[c].Route, y)
					} else {
						b.Columns = append(b.Columns, Column{
							Tree: i, Route: []topology.Node{w, y}, HeadStep: step, Parent: coveredCol[w],
						})
					}
					addOp(w, y, step, c, true)
				}
				continue
			}
			if coveredStep[y] >= 0 {
				panic(fmt.Sprintf("rs: node %d covered twice in tree %d", y, i))
			}
			var c int
			if coveredStep[w] == step-1 {
				// w received last step: this send is a forward — extend
				// w's column (w is necessarily its tail).
				c = coveredCol[w]
				b.Columns[c].Route = append(b.Columns[c].Route, y)
			} else {
				// Redirection: w sends an extra copy; new column.
				c = len(b.Columns)
				b.Columns = append(b.Columns, Column{
					Tree: i, Route: []topology.Node{w, y}, HeadStep: step, Parent: coveredCol[w],
				})
			}
			addOp(w, y, step, c, false)
			parent[y] = w
			coveredStep[y], coveredCol[y] = step, c
			newHolders = append(newHolders, y)
		}
		holders = append(holders, newHolders...)
	}
	b.parent = append(b.parent, parent)
}

// PathTo returns the node path of tree i's copy from the source to v,
// inclusive of both endpoints.
func (b *Broadcast) PathTo(tree int, v topology.Node) []topology.Node {
	if v == b.Src {
		return []topology.Node{b.Src}
	}
	var rev []topology.Node
	for x := v; x != b.Src; x = b.parent[tree][x] {
		if x < 0 {
			panic(fmt.Sprintf("rs: no tree-%d path to %d", tree, v))
		}
		rev = append(rev, x)
	}
	rev = append(rev, b.Src)
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// Packets converts the column decomposition into simulator packets for a
// broadcast starting at the given time. Redirection columns carry an
// After dependency on their parent column, so causality holds under any
// network condition. seq tags packet IDs.
func (b *Broadcast) Packets(start simnet.Time, seq int) []simnet.PacketSpec {
	specs := make([]simnet.PacketSpec, len(b.Columns))
	for c, col := range b.Columns {
		specs[c] = simnet.PacketSpec{
			ID:    simnet.PacketID{Source: b.Src, Channel: c, Seq: seq},
			Route: col.Route,
			Tee:   true,
		}
		if col.Parent < 0 {
			specs[c].Inject = start
		} else {
			specs[c].After = []int{col.Parent}
			// Inject is relative to the copy's arrival at the head node.
		}
	}
	return specs
}

// Sends returns the total number of send operations of the broadcast.
func (b *Broadcast) Sends() int { return len(b.Ops) }

// StepOps returns the operations grouped by algorithm step (index 0 =
// step 1), each group ordered by tree then column — the layout of the
// paper's Table I.
func (b *Broadcast) StepOps() [][]Op {
	out := make([][]Op, b.M+1)
	for _, op := range b.Ops {
		out[op.Step-1] = append(out[op.Step-1], op)
	}
	return out
}

// ATA runs VRS-ATA: every node of Q_m executes the VRS broadcast in turn.
func ATA(m int, p simnet.Params, opts simnet.Options) (*atarun.Result, error) {
	g, err := topology.Hypercube(m)
	if err != nil {
		return nil, err
	}
	if _, err := New(m, 0, false); err != nil {
		return nil, err
	}
	gen := func(src topology.Node, start simnet.Time, seq int) []simnet.PacketSpec {
		// m and src are validated above / drawn from g.
		return MustNew(m, src, false).Packets(start, seq)
	}
	return atarun.Sequential(g, p, gen, opts)
}
