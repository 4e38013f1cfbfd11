package ks

import (
	"testing"
	"testing/quick"

	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

var p = simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}

// Each direction's pattern is a spanning tree of H_m, the six patterns
// are pairwise arc-disjoint, and exactly six arcs of the mesh go unused.
func TestTreesSpanAndDontInterfere(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 6} {
		n := topology.HexMeshSize(m)
		for _, src := range []topology.Node{0, topology.Node(n / 2)} {
			b := MustNew(m, src)
			g := topology.MustHexMesh(m)
			seen := map[topology.Arc]int{}
			arcs := b.Arcs()
			for dir := 0; dir < 6; dir++ {
				if len(arcs[dir]) != n-1 {
					t.Fatalf("H%d src=%d dir %d: %d arcs, want N-1=%d", m, src, dir, len(arcs[dir]), n-1)
				}
				for _, a := range arcs[dir] {
					if !g.HasEdge(a.From, a.To) {
						t.Fatalf("H%d: arc %v is not a link", m, a)
					}
					if prev, dup := seen[a]; dup {
						t.Fatalf("H%d src=%d: arc %v used by directions %d and %d", m, src, a, prev, dir)
					}
					seen[a] = dir
				}
				for v := topology.Node(0); int(v) < n; v++ {
					path := b.PathTo(dir, v)
					if path[0] != src || path[len(path)-1] != v {
						t.Fatalf("H%d dir %d: bad path to %d", m, dir, v)
					}
				}
			}
			if len(seen) != 6*(n-1) {
				t.Fatalf("H%d: %d arcs used, want %d", m, len(seen), 6*(n-1))
			}
		}
	}
}

// The reconstruction's path profile: at most 4 store-and-forward
// operations deep (the paper's original pattern has 3; Fig. 8 is only
// published graphically) and, for m >= 4, at most 2m+2 hops on any
// delivery path (the paper's is 2m-2) — same Θ(√N) cut-through shape.
func TestChainDepthAndHops(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 6, 8} {
		b := MustNew(m, 0)
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
		if maxDepth > 4 {
			t.Fatalf("H%d: chain depth %d, want <= 4", m, maxDepth)
		}
		if m >= 4 {
			maxHops := 0
			for dir := 0; dir < 6; dir++ {
				for v := 1; v < b.N; v++ {
					if h := len(b.PathTo(dir, topology.Node(v))) - 1; h > maxHops {
						maxHops = h
					}
				}
			}
			if maxHops > 2*m+3 {
				t.Fatalf("H%d: longest path %d hops, want <= 2m+3 = %d", m, maxHops, 2*m+3)
			}
		}
	}
}

// Simulated single broadcast: contention-free, six copies everywhere.
func TestSingleBroadcast(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		g := topology.MustHexMesh(m)
		n := g.N()
		net, err := simnet.New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		copies := simnet.NewCopyMatrix(n)
		res, err := net.Run(MustNew(m, 0).Packets(0, 0), simnet.Options{Copies: copies})
		if err != nil {
			t.Fatal(err)
		}
		if res.Contentions != 0 {
			t.Fatalf("H%d: %d contentions", m, res.Contentions)
		}
		for v := 1; v < n; v++ {
			if got := copies.Get(topology.Node(v), 0); got != 6 {
				t.Fatalf("H%d: node %d got %d copies", m, v, got)
			}
		}
	}
}

func TestATA(t *testing.T) {
	for _, m := range []int{2, 3} {
		copies := simnet.NewCopyMatrix(topology.HexMeshSize(m))
		res, err := ATA(m, p, simnet.Options{Copies: copies})
		if err != nil {
			t.Fatal(err)
		}
		if err := copies.VerifyATA(6); err != nil {
			t.Fatalf("H%d: %v", m, err)
		}
		if res.Contentions != 0 {
			t.Fatalf("H%d: %d contentions", m, res.Contentions)
		}
		// Our reconstruction's teeth are up to 3m-3 long (the original
		// Fig. 8 pattern is published only graphically), so its longest
		// path has up to 2m-2 more cut-throughs than the paper's: allow
		// the Table II bound stretched by N(τ_S+μα+2mα): our pattern has
		// up to one extra store-and-forward and a few extra cut-throughs
		// per path vs the original Fig. 8 pattern.
		n := topology.HexMeshSize(m)
		bound := model.KSATABest(p, m) +
			simnet.Time(n)*((p.TauS+p.PacketTime())+simnet.Time(2*m)*p.Alpha)
		if res.Finish > bound {
			t.Fatalf("H%d: ATA %d exceeds stretched bound %d", m, res.Finish, bound)
		}
		if res.Finish < 4*model.IHCBest(p, n, 1) {
			t.Fatalf("H%d: KS-ATA %d not ≫ IHC", m, res.Finish)
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		m   int
		src topology.Node
	}{{1, 0}, {3, 19}, {3, -1}} {
		if b, err := New(tc.m, tc.src); err == nil || b != nil {
			t.Fatalf("New(%d, %d) = %v, %v; want error", tc.m, tc.src, b, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad input")
		}
	}()
	MustNew(1, 0)
}

// Property: rotation invariance — direction d+1's tree is direction d's
// tree with all addresses multiplied by ω = 3m-1.
func TestQuickRotationInvariance(t *testing.T) {
	const m = 4
	n := topology.HexMeshSize(m)
	b := MustNew(m, 0)
	omega := 3*m - 1
	f := func(vRaw uint8, dRaw uint8) bool {
		v := int(vRaw) % n
		d := int(dRaw) % 5 // compare d and d+1
		pv := b.parent[d][v]
		rv := v * omega % n
		prv := b.parent[d+1][rv]
		if pv < 0 {
			return prv < 0 || rv == 0
		}
		return int(prv) == int(pv)*omega%n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
