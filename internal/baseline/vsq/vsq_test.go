package vsq

import (
	"testing"
	"testing/quick"

	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

var p = simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}

// Each direction's pattern is a spanning tree, and the four patterns are
// pairwise arc-disjoint ("do not interfere") with exactly one unused arc
// per direction.
func TestTreesSpanAndDontInterfere(t *testing.T) {
	for _, m := range []int{3, 4, 5, 8} {
		for _, src := range []topology.Node{0, topology.TorusNode(m, 1, 2)} {
			b := MustNew(m, src)
			g := topology.MustSquareTorus(m)
			seen := map[topology.Arc]int{}
			arcs := b.Arcs()
			for dir := 0; dir < 4; dir++ {
				if len(arcs[dir]) != m*m-1 {
					t.Fatalf("SQ%d src=%d dir %d: %d arcs, want N-1=%d", m, src, dir, len(arcs[dir]), m*m-1)
				}
				for _, a := range arcs[dir] {
					if !g.HasEdge(a.From, a.To) {
						t.Fatalf("SQ%d: arc %v not a link", m, a)
					}
					if prev, dup := seen[a]; dup {
						t.Fatalf("SQ%d src=%d: arc %v used by directions %d and %d", m, src, a, prev, dir)
					}
					seen[a] = dir
				}
				// Spanning: every node reachable, path ends at source.
				for v := topology.Node(0); int(v) < m*m; v++ {
					path := b.PathTo(dir, v)
					if path[0] != src || path[len(path)-1] != v {
						t.Fatalf("SQ%d dir %d: bad path to %d: %v", m, dir, v, path)
					}
				}
			}
			if len(seen) != 4*(m*m-1) {
				t.Fatalf("SQ%d: %d arcs used", m, len(seen))
			}
		}
	}
}

// The longest path of the construction: at most 2m-2 hops and at most 3
// chain heads (store-and-forwards) deep.
func TestPathProfile(t *testing.T) {
	for _, m := range []int{3, 5, 8} {
		b := MustNew(m, 0)
		maxHops := 0
		for dir := 0; dir < 4; dir++ {
			for v := topology.Node(1); int(v) < m*m; v++ {
				if h := len(b.PathTo(dir, v)) - 1; h > maxHops {
					maxHops = h
				}
			}
		}
		if maxHops > 2*m-2 {
			t.Fatalf("SQ%d: longest path %d hops > 2m-2", m, maxHops)
		}
		// Chain-depth: ray=1, tooth=2, leg=3.
		maxDepth := 0
		for _, ch := range b.Chains {
			d := 1
			for parent := ch.Parent; parent >= 0; parent = b.Chains[parent].Parent {
				d++
			}
			if d > maxDepth {
				maxDepth = d
			}
		}
		if maxDepth != 3 {
			t.Fatalf("SQ%d: chain depth %d, want 3", m, maxDepth)
		}
	}
}

// Simulated single broadcast: contention-free, 4 copies everywhere,
// within the paper's Table II per-broadcast time.
func TestSingleBroadcast(t *testing.T) {
	for _, m := range []int{4, 6} {
		g := topology.MustSquareTorus(m)
		net, err := simnet.New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		copies := simnet.NewCopyMatrix(g.N())
		res, err := net.Run(MustNew(m, 0).Packets(0, 0), simnet.Options{Copies: copies})
		if err != nil {
			t.Fatal(err)
		}
		if res.Contentions != 0 {
			t.Fatalf("SQ%d: %d contentions", m, res.Contentions)
		}
		for v := 1; v < m*m; v++ {
			if got := copies.Get(topology.Node(v), 0); got != 4 {
				t.Fatalf("SQ%d: node %d got %d copies", m, v, got)
			}
		}
		// Paper per-broadcast bound: 3(τ_S+μα) + (2m-6)α, valid when
		// τ_S+μα >= 2α (always here).
		bound := 3*(p.TauS+p.PacketTime()) + simnet.Time(2*m-6)*p.Alpha
		slack := simnet.Time(0)
		if m == 3 {
			slack = p.Alpha
		}
		if res.Finish > bound+slack {
			t.Fatalf("SQ%d: broadcast %d exceeds paper bound %d", m, res.Finish, bound)
		}
	}
}

func TestATA(t *testing.T) {
	for _, m := range []int{3, 4, 5} {
		copies := simnet.NewCopyMatrix(m * m)
		res, err := ATA(m, p, simnet.Options{Copies: copies})
		if err != nil {
			t.Fatal(err)
		}
		if err := copies.VerifyATA(4); err != nil {
			t.Fatalf("SQ%d: %v", m, err)
		}
		if res.Contentions != 0 {
			t.Fatalf("SQ%d: %d contentions", m, res.Contentions)
		}
		n := m * m
		bound := model.VSQATABest(p, m)
		// m=3 exceeds the paper form by N·α (see TestSingleBroadcast).
		if res.Finish > bound+simnet.Time(n)*p.Alpha {
			t.Fatalf("SQ%d: ATA %d far exceeds Table II bound %d", m, res.Finish, bound)
		}
		// And IHC dominates by a large factor.
		if res.Finish < 4*model.IHCBest(p, n, 2) {
			t.Fatalf("SQ%d: VSQ-ATA %d not ≫ IHC", m, res.Finish)
		}
	}
}

func TestSaturatedWithinTableIV(t *testing.T) {
	res, err := ATA(4, p, simnet.Options{Saturated: true})
	if err != nil {
		t.Fatal(err)
	}
	// Our reconstruction's longest path is 2m-2 hops (one more than the
	// paper's 2m-3, from the second wrap leg), so the saturated bound is
	// N(2m-2)(τ_S+μα+D).
	m := 4
	bound := simnet.Time(m*m) * simnet.Time(2*m-2) * (p.TauS + p.PacketTime() + p.D)
	if res.Finish > bound {
		t.Fatalf("saturated ATA %d exceeds bound %d", res.Finish, bound)
	}
	if paper := model.VSQATAWorst(p, 4); bound <= paper {
		t.Fatalf("bound arithmetic wrong: %d <= %d", bound, paper)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		m   int
		src topology.Node
	}{{2, 0}, {4, 16}, {4, -1}} {
		if b, err := New(tc.m, tc.src); err == nil || b != nil {
			t.Fatalf("New(%d, %d) = %v, %v; want error", tc.m, tc.src, b, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad input")
		}
	}()
	MustNew(2, 0)
}

// Property: the pattern is translation-invariant — the tree from any
// source is the source-0 tree shifted.
func TestQuickTranslationInvariance(t *testing.T) {
	const m = 5
	base := MustNew(m, 0)
	f := func(sRaw uint8) bool {
		src := topology.Node(sRaw % 25)
		b := MustNew(m, src)
		sr, sc := topology.TorusCoords(m, src)
		for dir := 0; dir < 4; dir++ {
			for v := 0; v < 25; v++ {
				r, c := topology.TorusCoords(m, topology.Node(v))
				shifted := topology.TorusNode(m, r+sr, c+sc)
				pv := base.parent[dir][v]
				pb := b.parent[dir][shifted]
				if pv < 0 {
					if pb >= 0 {
						return false
					}
					continue
				}
				pr, pc := topology.TorusCoords(m, pv)
				if pb != topology.TorusNode(m, pr+sr, pc+sc) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
