package fault

import (
	"math/rand"
	"testing"

	"ihc/internal/simnet"
	"ihc/internal/topology"
)

func TestPlanValidate(t *testing.T) {
	g := topology.MustHypercube(3)
	ok := NewPlan(1)
	ok.Nodes[3] = Crash
	ok.Links[topology.NewEdge(0, 1)] = true
	ok.Noisy[topology.NewEdge(0, 2)] = true
	if err := ok.Validate(g); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (*Plan)(nil).Validate(g); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}

	badNode := NewPlan(1)
	badNode.Nodes[8] = Crash // Q3 has nodes 0..7
	if err := badNode.Validate(g); err == nil {
		t.Fatal("plan naming node 8 in Q3 accepted")
	}
	badLink := NewPlan(1)
	badLink.Links[topology.NewEdge(0, 7)] = true // 000-111 is not a Q3 edge
	if err := badLink.Validate(g); err == nil {
		t.Fatal("plan breaking non-edge {0,7} accepted")
	}
	badNoisy := NewPlan(1)
	badNoisy.Noisy[topology.NewEdge(0, 7)] = true
	if err := badNoisy.Validate(g); err == nil {
		t.Fatal("plan with noisy non-edge {0,7} accepted")
	}
}

func TestTemporalPlanValidate(t *testing.T) {
	g := topology.MustHypercube(3)
	cases := []struct {
		name string
		tp   TemporalPlan
		ok   bool
	}{
		{"empty", TemporalPlan{}, true},
		{"good", TemporalPlan{
			Nodes: []NodeFault{{Node: 1, Kind: Crash, At: 500}},
			Links: []LinkFault{{U: 0, V: 1, From: 0, Until: Forever}},
		}, true},
		{"node out of range", TemporalPlan{Nodes: []NodeFault{{Node: 8, Kind: Crash}}}, false},
		{"node twice", TemporalPlan{Nodes: []NodeFault{{Node: 1, Kind: Crash}, {Node: 1, Kind: Corrupt, At: 9}}}, false},
		{"negative activation", TemporalPlan{Nodes: []NodeFault{{Node: 1, Kind: Crash, At: -1}}}, false},
		{"non-edge link", TemporalPlan{Links: []LinkFault{{U: 0, V: 7, Until: Forever}}}, false},
		{"empty window", TemporalPlan{Links: []LinkFault{{U: 0, V: 1, From: 10, Until: 10}}}, false},
		{"inverted window", TemporalPlan{Links: []LinkFault{{U: 0, V: 1, From: 10, Until: 5}}}, false},
	}
	for _, c := range cases {
		err := c.tp.Validate(g)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, cerr := c.tp.Compile(g); (cerr == nil) != (err == nil) {
			t.Errorf("%s: Compile and Validate disagree (%v vs %v)", c.name, cerr, err)
		}
	}
}

func TestTraceRouteNoisyLink(t *testing.T) {
	p := NewPlan(0)
	p.Noisy[topology.NewEdge(2, 3)] = true
	route := []topology.Node{0, 1, 2, 3, 4}
	fates := p.TraceRoute(route, 0)
	want := []CopyFate{Intact, Intact, Intact, Corrupted, Corrupted}
	for k := 1; k < len(route); k++ {
		if fates[k] != want[k] {
			t.Errorf("position %d: fate %v, want %v", k, fates[k], want[k])
		}
	}
	// Broken dominates noisy on the same link.
	p.Links[topology.NewEdge(2, 3)] = true
	fates = p.TraceRoute(route, 0)
	for _, k := range []int{3, 4} {
		if fates[k] != Lost {
			t.Errorf("broken+noisy link: position %d fate %v, want lost", k, fates[k])
		}
	}
}

// randomSimpleRoute returns a random simple route of up to maxLen nodes
// in g (a self-avoiding walk), always of length >= 2.
func randomSimpleRoute(g *topology.Graph, rng *rand.Rand, maxLen int) []topology.Node {
	for {
		cur := topology.Node(rng.Intn(g.N()))
		route := []topology.Node{cur}
		used := map[topology.Node]bool{cur: true}
		for len(route) < maxLen {
			nbrs := g.Neighbors(cur)
			next := topology.Node(-1)
			for _, off := range rng.Perm(len(nbrs)) {
				if !used[nbrs[off]] {
					next = nbrs[off]
					break
				}
			}
			if next < 0 {
				break
			}
			route = append(route, next)
			used[next] = true
			cur = next
		}
		if len(route) >= 2 {
			return route
		}
	}
}

// foldRelay replays the injector's per-hop decisions along a route and
// folds them into per-position fates the way the engine would: a drop
// kills everything downstream, a corrupt taints it.
func foldRelay(in *Injector, route []topology.Node, channel int, depart simnet.Time) []CopyFate {
	fates := make([]CopyFate, len(route))
	state := Intact
	for h := 0; h+1 < len(route); h++ {
		switch in.Relay(simnet.PacketID{Channel: channel}, h, route[h], route[h+1], depart) {
		case simnet.FaultDrop:
			for k := h + 1; k < len(route); k++ {
				fates[k] = Lost
			}
			return fates
		case simnet.FaultCorrupt:
			state = Corrupted
		}
		fates[h+1] = state
	}
	return fates
}

// TestInjectorMatchesTraceRoute is the bridge between the combinatorial
// and the timed fault models: for random static plans and random simple
// routes, folding the compiled injector's hop decisions must reproduce
// TraceRoute's fates exactly — same Byzantine coin, same precedence.
func TestInjectorMatchesTraceRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := topology.MustHypercube(4)
	edges := g.Edges()
	for trial := 0; trial < 300; trial++ {
		p := NewPlan(rng.Int63())
		for i := 0; i < 3; i++ {
			v := topology.Node(rng.Intn(g.N()))
			p.Nodes[v] = Kind(1 + rng.Intn(3)) // Crash, Corrupt, or Byzantine
		}
		for i := 0; i < 2; i++ {
			p.Links[edges[rng.Intn(len(edges))]] = true
			p.Noisy[edges[rng.Intn(len(edges))]] = true
		}
		in, err := FromStatic(p).Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			route := randomSimpleRoute(g, rng, 12)
			channel := rng.Intn(6)
			want := p.TraceRoute(route, channel)
			got := foldRelay(in, route, channel, simnet.Time(rng.Int63n(1e6)))
			for k := 1; k < len(route); k++ {
				if got[k] != want[k] {
					t.Fatalf("trial %d route %v channel %d position %d: injector %v, TraceRoute %v\nplan: %+v",
						trial, route, channel, k, got[k], want[k], p)
				}
			}
		}
	}
}

// TestInjectorTemporalWindows exercises what the static model cannot
// express: a node that crashes mid-run and a link that is down for a
// window and then recovers. The link is listed twice, the second time
// reversed and corrupting over a window that overlaps the drop.
func TestInjectorTemporalWindows(t *testing.T) {
	g := topology.MustHypercube(3)
	tp := &TemporalPlan{
		Nodes: []NodeFault{{Node: 1, Kind: Crash, At: 1000}},
		Links: []LinkFault{
			{U: 2, V: 3, From: 500, Until: 600},
			{U: 2, V: 6, From: 0, Until: Forever, Corrupt: true},
			{U: 3, V: 2, From: 550, Until: 700, Corrupt: true},
		},
	}
	in, err := tp.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	id := simnet.PacketID{}
	// Node 1 relays fine before its crash time, drops after.
	if act := in.Relay(id, 1, 1, 0, 999); act != simnet.FaultNone {
		t.Errorf("node 1 at t=999: %v, want none", act)
	}
	if act := in.Relay(id, 1, 1, 0, 1000); act != simnet.FaultDrop {
		t.Errorf("node 1 at t=1000: %v, want drop", act)
	}
	// Node faults do not apply at hop 0 (the source's own hop).
	if act := in.Relay(id, 0, 1, 0, 5000); act != simnet.FaultNone {
		t.Errorf("node 1 as source at t=5000: %v, want none (hop 0 exempt)", act)
	}
	// Link {2,3} is down inside [500, 600), where the drop dominates the
	// overlapping corrupt window, and corrupts inside [600, 700), in
	// both directions.
	for _, c := range []struct {
		at   simnet.Time
		want simnet.FaultAction
	}{
		{499, simnet.FaultNone}, {500, simnet.FaultDrop}, {550, simnet.FaultDrop}, {599, simnet.FaultDrop},
		{600, simnet.FaultCorrupt}, {699, simnet.FaultCorrupt}, {700, simnet.FaultNone},
	} {
		for _, arc := range [][2]topology.Node{{2, 3}, {3, 2}} {
			if act := in.Relay(id, 2, arc[0], arc[1], c.at); act != c.want {
				t.Errorf("link %d→%d at t=%d: %v, want %v", arc[0], arc[1], c.at, act, c.want)
			}
		}
	}
	// The windows name only their own link: node 2's other links and
	// node 3's are healthy then.
	if act := in.Relay(id, 2, 2, 0, 550); act != simnet.FaultNone {
		t.Errorf("link 2→0 at t=550: %v, want none", act)
	}
	if act := in.Relay(id, 2, 3, 7, 650); act != simnet.FaultNone {
		t.Errorf("link 3→7 at t=650: %v, want none", act)
	}
	// Noisy link corrupts in both directions, forever.
	if act := in.Relay(id, 3, 6, 2, 1e9); act != simnet.FaultCorrupt {
		t.Errorf("noisy link {2,6} reversed at t=1e9: %v, want corrupt", act)
	}
}
