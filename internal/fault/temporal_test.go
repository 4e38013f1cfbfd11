package fault

import (
	"math/rand"
	"testing"

	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// validateCase is one plan and what Validate and ValidateStatic should
// say of it.
type validateCase struct {
	name       string
	tp         *TemporalPlan
	ok, static bool
}

// checkValidate runs Validate, ValidateStatic and Compile on each case;
// Compile must agree with Validate.
func checkValidate(t *testing.T, g *topology.Graph, cases []validateCase) {
	t.Helper()
	for _, c := range cases {
		err := c.tp.Validate(g)
		if c.ok != (err == nil) {
			t.Errorf("%s: Validate error %v, want ok %v", c.name, err, c.ok)
		}
		if serr := c.tp.ValidateStatic(g); c.static != (serr == nil) {
			t.Errorf("%s: ValidateStatic error %v, want ok %v", c.name, serr, c.static)
		}
		if _, cerr := c.tp.Compile(g); (cerr == nil) != (err == nil) {
			t.Errorf("%s: Compile and Validate disagree (%v vs %v)", c.name, cerr, err)
		}
	}
}

// TestPlanValidate: a static placement (node faults at 0, link windows
// [0, Forever)) is valid, and static, exactly when every node and link
// it names exists in the graph.
func TestPlanValidate(t *testing.T) {
	checkValidate(t, topology.MustHypercube(3), []validateCase{
		{"nil", nil, true, true},
		{"empty", &TemporalPlan{}, true, true},
		{"static", &TemporalPlan{
			Nodes: []NodeFault{{Node: 3, Kind: Crash}},
			Links: []LinkFault{{U: 0, V: 1, Until: Forever}, {U: 0, V: 2, Until: Forever, Corrupt: true}},
		}, true, true},
		{"node out of range", &TemporalPlan{Nodes: []NodeFault{{Node: 8, Kind: Crash}}}, false, false},
		{"non-edge link", &TemporalPlan{Links: []LinkFault{{U: 0, V: 7, Until: Forever}}}, false, false},
		{"noisy non-edge link", &TemporalPlan{Links: []LinkFault{{U: 0, V: 7, Until: Forever, Corrupt: true}}}, false, false},
	})
}

// TestTemporalPlanValidate: Validate accepts a timed plan whose every
// entry has a non-negative time and a non-empty window, and
// ValidateStatic rejects every plan with an entry that does not start at
// 0 or ends.
func TestTemporalPlanValidate(t *testing.T) {
	checkValidate(t, topology.MustHypercube(3), []validateCase{
		{"timed node", &TemporalPlan{
			Nodes: []NodeFault{{Node: 1, Kind: Crash, At: 500}},
			Links: []LinkFault{{U: 0, V: 1, From: 0, Until: Forever}},
		}, true, false},
		{"late window", &TemporalPlan{Links: []LinkFault{{U: 0, V: 1, From: 5, Until: Forever}}}, true, false},
		{"finite window", &TemporalPlan{Links: []LinkFault{{U: 0, V: 1, Until: 10, Corrupt: true}}}, true, false},
		{"node twice", &TemporalPlan{Nodes: []NodeFault{{Node: 1, Kind: Crash}, {Node: 1, Kind: Corrupt, At: 9}}}, false, false},
		{"negative activation", &TemporalPlan{Nodes: []NodeFault{{Node: 1, Kind: Crash, At: -1}}}, false, false},
		{"empty window", &TemporalPlan{Links: []LinkFault{{U: 0, V: 1, From: 10, Until: 10}}}, false, false},
		{"inverted window", &TemporalPlan{Links: []LinkFault{{U: 0, V: 1, From: 10, Until: 5}}}, false, false},
	})
}

func TestTraceRouteNoisyLink(t *testing.T) {
	p := &TemporalPlan{Links: []LinkFault{{U: 2, V: 3, Until: Forever, Corrupt: true}}}
	route := []topology.Node{0, 1, 2, 3, 4}
	fates := p.TraceRoute(route, 0)
	want := []CopyFate{Intact, Intact, Intact, Corrupted, Corrupted}
	for k := 1; k < len(route); k++ {
		if fates[k] != want[k] {
			t.Errorf("position %d: fate %v, want %v", k, fates[k], want[k])
		}
	}
	// Broken dominates noisy on the same link, in either order.
	for _, links := range [][]LinkFault{
		{{U: 2, V: 3, Until: Forever, Corrupt: true}, {U: 3, V: 2, Until: Forever}},
		{{U: 3, V: 2, Until: Forever}, {U: 2, V: 3, Until: Forever, Corrupt: true}},
	} {
		p.Links = links
		fates = p.TraceRoute(route, 0)
		for _, k := range []int{3, 4} {
			if fates[k] != Lost {
				t.Errorf("broken+noisy link %v: position %d fate %v, want lost", links, k, fates[k])
			}
		}
	}
}

// randomStaticPlan draws a static plan on g: one to three faulty nodes
// (Crash, Corrupt or Byzantine), two broken and two noisy links, which
// may coincide.
func randomStaticPlan(rng *rand.Rand, g *topology.Graph) *TemporalPlan {
	p := &TemporalPlan{Seed: rng.Int63()}
	for _, v := range rng.Perm(g.N())[:1+rng.Intn(3)] {
		p.Nodes = append(p.Nodes, NodeFault{Node: topology.Node(v), Kind: Kind(1 + rng.Intn(3))})
	}
	edges := g.Edges()
	for i := 0; i < 4; i++ {
		e := edges[rng.Intn(len(edges))]
		p.Links = append(p.Links, LinkFault{U: e.U, V: e.V, Until: Forever, Corrupt: i%2 == 1})
	}
	return p
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
	for trial := 0; trial < 300; trial++ {
		p := randomStaticPlan(rng, g)
		in, err := p.Compile(g)
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
	// Node faults do not apply at hop 0 (the source's own hop), nor to
	// the link-only verdict.
	if act := in.Relay(id, 0, 1, 0, 5000); act != simnet.FaultNone {
		t.Errorf("node 1 as source at t=5000: %v, want none (hop 0 exempt)", act)
	}
	if act := in.Link(1, 0, 5000); act != simnet.FaultNone {
		t.Errorf("Link 1→0 at t=5000: %v, want none (node faults are not link faults)", act)
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
			if act := in.Link(arc[0], arc[1], c.at); act != c.want {
				t.Errorf("Link %d→%d at t=%d: %v, want %v", arc[0], arc[1], c.at, act, c.want)
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
