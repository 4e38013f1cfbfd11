package rs

import (
	"testing"
	"testing/quick"

	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

var p = simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}

func TestBroadcastStructureQ4(t *testing.T) {
	b := MustNew(4, 0, false)
	// γ 2^γ sends minus the γ omitted returns.
	if b.Sends() != 4*16-4 {
		t.Fatalf("sends = %d, want 60", b.Sends())
	}
	steps := b.StepOps()
	if len(steps) != 5 {
		t.Fatalf("steps = %d, want γ+1 = 5", len(steps))
	}
	// Step k has γ·2^{k-2} sends (k >= 2); step 1 has γ; the last step
	// omits the γ returns.
	want := []int{4, 4, 8, 16, 28}
	for i, ops := range steps {
		if len(ops) != want[i] {
			t.Fatalf("step %d: %d ops, want %d", i+1, len(ops), want[i])
		}
	}
	// Spot-check paper Table I entries (source 0, Q4).
	has := func(from, to topology.Node, step int) bool {
		for _, op := range steps[step-1] {
			if op.From == from && op.To == to {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		from, to topology.Node
		step     int
	}{
		{0, 1, 1}, {0, 2, 1}, {0, 4, 1}, {0, 8, 1}, // fan-out
		{1, 3, 2}, {2, 6, 2}, {4, 12, 2}, {8, 9, 2}, // first doubling
		{3, 7, 3}, {6, 14, 3}, {12, 13, 3}, {9, 11, 3},
		{7, 15, 4}, {14, 15, 4}, {13, 15, 4}, {11, 15, 4},
		{15, 14, 5}, {13, 5, 5}, {7, 3, 5}, {11, 9, 5},
	} {
		if !has(c.from, c.to, c.step) {
			t.Fatalf("missing Table I op %d->%d at step %d", c.from, c.to, c.step)
		}
	}
}

func TestIncludeReturns(t *testing.T) {
	b := MustNew(4, 0, true)
	if b.Sends() != 4*16 {
		t.Fatalf("sends with returns = %d, want 64", b.Sends())
	}
	returns := 0
	for _, op := range b.Ops {
		if op.Return {
			if op.To != 0 {
				t.Fatalf("return op to %d, not source", op.To)
			}
			returns++
		}
	}
	if returns != 4 {
		t.Fatalf("returns = %d, want γ = 4", returns)
	}
}

// Every node receives exactly γ copies, one per tree, over node-disjoint
// paths (the property RS [20] proves, which the paper relies on).
func TestPathsNodeDisjoint(t *testing.T) {
	for _, m := range []int{3, 4, 5} {
		for _, src := range []topology.Node{0, 5} {
			b := MustNew(m, src, false)
			n := 1 << m
			for v := topology.Node(0); int(v) < n; v++ {
				if v == src {
					continue
				}
				seen := map[topology.Node]int{}
				for i := 0; i < m; i++ {
					path := b.PathTo(i, v)
					if path[0] != src || path[len(path)-1] != v {
						t.Fatalf("Q%d src=%d tree %d: bad endpoints %v", m, src, i, path)
					}
					for _, x := range path[1 : len(path)-1] {
						seen[x]++
						if seen[x] > 1 {
							t.Fatalf("Q%d src=%d: node %d shared by paths to %d", m, src, x, v)
						}
					}
				}
			}
		}
	}
}

func TestColumnsPartitionSends(t *testing.T) {
	b := MustNew(5, 0, false)
	total := 0
	for ci, col := range b.Columns {
		total += len(col.Route) - 1
		if col.Parent >= ci {
			t.Fatalf("column %d has forward parent %d", ci, col.Parent)
		}
		if col.Parent >= 0 {
			// Parent column must pass through this column's head node.
			head := col.Route[0]
			found := false
			for _, x := range b.Columns[col.Parent].Route[1:] {
				if x == head {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("column %d head %d not covered by parent %d", ci, head, col.Parent)
			}
		}
	}
	if total != b.Sends() {
		t.Fatalf("columns carry %d sends, ops say %d", total, b.Sends())
	}
}

// A single VRS broadcast simulated on a dedicated network: contention
// free, every node gets γ copies, and the span equals the causal
// longest path (γ/2+1)(τ_S+μα) for even γ — within (i.e., at most) the
// paper's structural bound (γ-1)(τ_S+μα)+2α.
func TestSingleBroadcastTiming(t *testing.T) {
	for _, m := range []int{4, 6} {
		g := topology.MustHypercube(m)
		net, err := simnet.New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		copies := simnet.NewCopyMatrix(g.N())
		res, err := net.Run(MustNew(m, 0, false).Packets(0, 0), simnet.Options{Copies: copies})
		if err != nil {
			t.Fatal(err)
		}
		if res.Contentions != 0 {
			t.Fatalf("Q%d: %d contentions", m, res.Contentions)
		}
		for v := 1; v < g.N(); v++ {
			if got := copies.Get(topology.Node(v), 0); got != m {
				t.Fatalf("Q%d: node %d got %d copies", m, v, got)
			}
		}
		measured := res.Finish
		causal := simnet.Time(m/2+1) * (p.TauS + p.PacketTime())
		if measured != causal {
			t.Fatalf("Q%d: span = %d, want causal %d", m, measured, causal)
		}
		bound := simnet.Time(m-1)*(p.TauS+p.PacketTime()) + 2*p.Alpha
		if measured > bound {
			t.Fatalf("Q%d: span %d exceeds paper bound %d", m, measured, bound)
		}
	}
}

func TestATACompleteAndBounded(t *testing.T) {
	for _, m := range []int{3, 4, 5} {
		copies := simnet.NewCopyMatrix(1 << m)
		res, err := ATA(m, p, simnet.Options{Copies: copies})
		if err != nil {
			t.Fatal(err)
		}
		if err := copies.VerifyATA(m); err != nil {
			t.Fatalf("Q%d: %v", m, err)
		}
		if res.Contentions != 0 {
			t.Fatalf("Q%d: %d contentions in serialized ATA", m, res.Contentions)
		}
		n := 1 << m
		bound := model.VRSATABest(p, n)
		if res.Finish > bound {
			t.Fatalf("Q%d: ATA %d exceeds Table II bound %d", m, res.Finish, bound)
		}
		// The serialized structure: N equal broadcasts back to back.
		if res.BroadcastFinish[n-1] != res.Finish {
			t.Fatalf("Q%d: last broadcast finish mismatch", m)
		}
		per := res.BroadcastFinish[0]
		if res.Finish != simnet.Time(n)*per {
			t.Fatalf("Q%d: ATA %d != N x per-broadcast %d", m, res.Finish, per)
		}
	}
}

// IHC's headline comparison: VRS-ATA is far slower than IHC best case on
// the same cube (factor ~N/η in broadcasts).
func TestATAMuchSlowerThanIHCModel(t *testing.T) {
	for _, m := range []int{4, 5, 6} {
		n := 1 << m
		res, err := ATA(m, p, simnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ihc := model.IHCBest(p, n, 2)
		if res.Finish < 4*ihc {
			t.Fatalf("Q%d: VRS-ATA %d not ≫ IHC %d", m, res.Finish, ihc)
		}
	}
}

func TestSaturatedATAWithinTableIV(t *testing.T) {
	res, err := ATA(4, p, simnet.Options{Saturated: true})
	if err != nil {
		t.Fatal(err)
	}
	bound := model.VRSATAWorst(p, 16)
	if res.Finish > bound {
		t.Fatalf("saturated ATA %d exceeds Table IV bound %d", res.Finish, bound)
	}
	// And saturation really hurts: at least 2x the dedicated time (VRS is
	// already store-and-forward dominated, so the slowdown is milder than
	// for IHC).
	ded, err := ATA(4, p, simnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish < 2*ded.Finish {
		t.Fatalf("saturated %d not ≫ dedicated %d", res.Finish, ded.Finish)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		m   int
		src topology.Node
	}{{0, 0}, {25, 0}, {3, 9}, {3, -1}} {
		if b, err := New(tc.m, tc.src, false); err == nil || b != nil {
			t.Fatalf("New(%d, %d) = %v, %v; want error", tc.m, tc.src, b, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad input")
		}
	}()
	MustNew(0, 0, false)
}

// Property: for random sources in Q5, the broadcast covers every node
// exactly γ times with no contention.
func TestQuickBroadcastFromAnySource(t *testing.T) {
	g := topology.MustHypercube(5)
	f := func(srcRaw uint8) bool {
		src := topology.Node(srcRaw % 32)
		net, err := simnet.New(g, p)
		if err != nil {
			return false
		}
		copies := simnet.NewCopyMatrix(g.N())
		res, err := net.Run(MustNew(5, src, false).Packets(0, 0), simnet.Options{Copies: copies})
		if err != nil || res.Contentions != 0 {
			return false
		}
		for v := 0; v < 32; v++ {
			want := 5
			if topology.Node(v) == src {
				want = 0
			}
			if copies.Get(topology.Node(v), src) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}
