package repair

import (
	"math/rand"
	"reflect"
	"testing"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

func newIHC(t testing.TB, g *topology.Graph) *core.IHC {
	t.Helper()
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func testTopologies(t testing.TB) map[string]*core.IHC {
	return map[string]*core.IHC{
		"sq4": newIHC(t, topology.MustSquareTorus(4)),
		"q4":  newIHC(t, topology.MustHypercube(4)),
		"q6":  newIHC(t, topology.MustHypercube(6)),
	}
}

// coverage rebuilds the (receiver, source) copy counts from recorded
// deliveries, skipping NAK packets (negative Seq) and corrupted copies.
func coverage(n int, ds []simnet.Delivery) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for _, d := range ds {
		if d.ID.Seq < 0 || d.Corrupted {
			continue
		}
		m[d.Node][d.ID.Source]++
	}
	return m
}

// TestFaultFreeNoFalsePositives is the detection-false-positive
// property: with repair enabled and no faults, at ρ ∈ {0, 0.1, 0.3} on
// SQ4/Q4/Q6, the manager must raise zero timeouts, send nothing, and
// the delivery stream must be byte-identical to a repair-off run.
func TestFaultFreeNoFalsePositives(t *testing.T) {
	for name, x := range testTopologies(t) {
		for _, rho := range []float64{0, 0.1, 0.3} {
			cfg := core.Config{
				Params:           simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Rho: rho, Seed: 7},
				Eta:              2,
				SkipCopies:       true,
				RecordDeliveries: true,
			}
			base, err := x.Run(cfg)
			if err != nil {
				t.Fatalf("%s ρ=%g baseline: %v", name, rho, err)
			}
			res, st, err := Run(x, cfg, Config{})
			if err != nil {
				t.Fatalf("%s ρ=%g repaired: %v", name, rho, err)
			}
			if st.Timeouts != 0 || st.Naks != 0 || st.Retransmissions != 0 || st.DeadLinks != 0 {
				t.Fatalf("%s ρ=%g: false positives: %+v", name, rho, st)
			}
			if len(base.Deliveriesv) != len(res.Deliveriesv) {
				t.Fatalf("%s ρ=%g: delivery counts differ: %d vs %d",
					name, rho, len(base.Deliveriesv), len(res.Deliveriesv))
			}
			for i := range base.Deliveriesv {
				if base.Deliveriesv[i] != res.Deliveriesv[i] {
					t.Fatalf("%s ρ=%g: delivery %d differs: %+v vs %+v",
						name, rho, i, base.Deliveriesv[i], res.Deliveriesv[i])
				}
			}
			if base.Finish != res.Finish {
				t.Fatalf("%s ρ=%g: finish differs: %d vs %d", name, rho, base.Finish, res.Finish)
			}
		}
	}
}

// runRepaired executes a repair-enabled broadcast against a set of
// permanently broken links and returns the result, stats, and coverage.
func runRepaired(t *testing.T, x *core.IHC, broken []topology.Edge) (*core.Result, Stats, [][]int) {
	t.Helper()
	tp := &fault.TemporalPlan{}
	for _, e := range broken {
		tp.Links = append(tp.Links, fault.LinkFault{U: e.U, V: e.V, Until: fault.Forever})
	}
	inj, err := tp.Compile(x.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Params:           simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37},
		SkipCopies:       true,
		RecordDeliveries: true,
		Fault:            inj,
	}
	res, st, err := Run(x, cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res, st, coverage(x.N(), res.Deliveriesv)
}

func assertFullCoverage(t *testing.T, name string, cov [][]int) {
	t.Helper()
	for v := range cov {
		for s := range cov[v] {
			if v == s {
				continue
			}
			if cov[v][s] == 0 {
				t.Fatalf("%s: node %d never received source %d's message", name, v, s)
			}
		}
	}
}

// TestSingleBrokenLinkRecovers: one permanently dead link loses copies
// on both directed cycles crossing it; repair must detect, diagnose the
// link, retransmit, and restore full (receiver, source) coverage.
func TestSingleBrokenLinkRecovers(t *testing.T) {
	for name, x := range testTopologies(t) {
		g := x.Graph()
		e := g.Edges()[0]
		_, st, cov := runRepaired(t, x, []topology.Edge{e})
		assertFullCoverage(t, name, cov)
		if st.Timeouts == 0 || st.Naks == 0 || st.Retransmissions == 0 {
			t.Fatalf("%s: no repair activity despite broken link: %+v", name, st)
		}
		if st.DeadLinks != 1 {
			t.Fatalf("%s: diagnosed %d dead links, want 1 (%+v)", name, st.DeadLinks, st)
		}
		if st.Recovered == 0 {
			t.Fatalf("%s: nothing recovered: %+v", name, st)
		}
		if st.Detours == 0 {
			t.Fatalf("%s: later stages were not patched around the dead link: %+v", name, st)
		}
	}
}

// TestBeyondStaticBound: γ broken links break the static masking bound
// (PR 3 showed exactness at γ); repair must still recover every pair as
// long as the residual graph is connected.
func TestBeyondStaticBound(t *testing.T) {
	for name, x := range testTopologies(t) {
		g := x.Graph()
		gamma := x.Gamma()
		// Break γ+1 links forming a matching (no shared endpoints), so no
		// node loses more than one link and the graph stays connected —
		// verified below.
		var broken []topology.Edge
		usedNode := map[topology.Node]bool{}
		for _, e := range g.Edges() {
			if len(broken) >= gamma+1 {
				break
			}
			if usedNode[e.U] || usedNode[e.V] {
				continue
			}
			usedNode[e.U], usedNode[e.V] = true, true
			broken = append(broken, e)
		}
		res := topology.New("residual", g.N())
		for _, e := range g.Edges() {
			dead := false
			for _, b := range broken {
				if e == b {
					dead = true
					break
				}
			}
			if !dead {
				res.AddEdge(e.U, e.V)
			}
		}
		if !res.Connected() {
			t.Fatalf("%s: test setup broke connectivity", name)
		}
		_, st, cov := runRepaired(t, x, broken)
		assertFullCoverage(t, name, cov)
		if st.DeadLinks == 0 {
			t.Fatalf("%s: no diagnosis with %d broken links: %+v", name, len(broken), st)
		}
	}
}

// TestPatchedRouteValidity: white-box check that patched routes avoid
// dead links and never reuse a directed arc (the engine would reject
// the whole stage otherwise).
func TestPatchedRouteValidity(t *testing.T) {
	x := newIHC(t, topology.MustSquareTorus(4))
	m := NewManager(x, simnet.Params{}.Defaulted())
	g := x.Graph()
	// Diagnose three links dead by brute suspicion.
	for _, e := range g.Edges()[:3] {
		m.suspectArc(e.U, e.V)
		m.suspectArc(e.U, e.V)
	}
	if n := len(m.DeadLinkList()); n != 3 {
		t.Fatalf("diagnosed %d links, want 3", n)
	}
	for j := 0; j < x.Gamma(); j++ {
		c := x.DirectedCycle(j)
		route := append(append([]topology.Node{}, c...), c[0])
		out, _, ok := m.patched(route)
		if !ok {
			t.Fatalf("cycle %d: patch failed", j)
		}
		seen := map[topology.Arc]bool{}
		for h := 0; h+1 < len(out); h++ {
			u, w := out[h], out[h+1]
			if !g.HasEdge(u, w) {
				t.Fatalf("cycle %d: hop {%d,%d} is not an edge", j, u, w)
			}
			if m.deadEdge(u, w) {
				t.Fatalf("cycle %d: patched route still crosses dead link {%d,%d}", j, u, w)
			}
			if seen[topology.Arc{From: u, To: w}] {
				t.Fatalf("cycle %d: patched route reuses directed arc %d→%d", j, u, w)
			}
			seen[topology.Arc{From: u, To: w}] = true
		}
		// Every node of the original route is still visited.
		vis := map[topology.Node]bool{}
		for _, v := range out {
			vis[v] = true
		}
		for _, v := range route {
			if !vis[v] {
				t.Fatalf("cycle %d: patched route skips node %d", j, v)
			}
		}
	}
}

// TestNakRouteSurvives: the NAK return path must avoid diagnosed-dead
// links and reach the source.
func TestNakRouteSurvives(t *testing.T) {
	x := newIHC(t, topology.MustSquareTorus(4))
	m := NewManager(x, simnet.Params{}.Defaulted())
	g := x.Graph()
	for _, e := range g.Edges()[:2] {
		m.suspectArc(e.U, e.V)
		m.suspectArc(e.U, e.V)
	}
	for v := topology.Node(1); int(v) < x.N(); v++ {
		r := m.nakRoute(v, 0)
		if r == nil {
			t.Fatalf("no NAK route from %d to 0", v)
		}
		if r[0] != v || r[len(r)-1] != 0 {
			t.Fatalf("NAK route %v does not run %d→0", r, v)
		}
		for h := 0; h+1 < len(r); h++ {
			if !g.HasEdge(r[h], r[h+1]) {
				t.Fatalf("NAK route %v: hop {%d,%d} not an edge", r, r[h], r[h+1])
			}
			if m.deadEdge(r[h], r[h+1]) {
				t.Fatalf("NAK route %v crosses dead link {%d,%d}", r, r[h], r[h+1])
			}
		}
	}
}

// TestDeadlineIsSufficient: every fault-free delivery of a stage must
// beat the deadline its spec is given — the formal version of "no false
// positives" for the deadline formula itself. One stage with known
// inject times suffices: the dynamic run hands Attach each stage's real
// inject times, so per-stage sufficiency extends to the whole run.
func TestDeadlineIsSufficient(t *testing.T) {
	for name, x := range testTopologies(t) {
		for _, rho := range []float64{0, 0.1, 0.3} {
			p := simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Rho: rho, Seed: 11}
			m := NewManager(x, p)
			specs, err := x.StagePackets(nil, 0, 2, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			byID := map[simnet.PacketID]simnet.Time{}
			for _, s := range specs {
				byID[s.ID] = m.DeadlineFor(s)
			}
			net, err := simnet.New(x.Graph(), p)
			if err != nil {
				t.Fatal(err)
			}
			var log []simnet.Delivery
			if _, err := net.Run(specs, simnet.Options{Log: &log}); err != nil {
				t.Fatal(err)
			}
			for _, d := range log {
				if d.At > byID[d.ID] {
					t.Fatalf("%s ρ=%g: packet %v reached node %d at %d, after its deadline %d",
						name, rho, d.ID, d.Node, d.At, byID[d.ID])
				}
			}
		}
	}
}

// TestShortestRoutesMatchPerDestinationSearch compares the one-BFS
// recovery routes with the search they replace, one
// ShortestPathAvoiding per missing destination, over random sets of
// dead arcs and dead nodes on Q4 and Q6: every route, and their order,
// must be identical.
func TestShortestRoutesMatchPerDestinationSearch(t *testing.T) {
	reference := func(m *Manager, o *origin) [][]topology.Node {
		src := o.route[0]
		var out [][]topology.Node
		seen := make(map[topology.Node]bool, len(o.route))
		for _, w := range o.route[1:] {
			if seen[w] || o.got[w] {
				seen[w] = true
				continue
			}
			seen[w] = true
			p := m.g.ShortestPathAvoiding(src, w, func(a, b topology.Node) bool {
				return m.deadEdge(a, b) || (b != w && m.deadNode[b])
			})
			if p != nil {
				out = append(out, p)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{4, 6} {
		x := newIHC(t, topology.MustHypercube(dim))
		n := x.N()
		for trial := 0; trial < 300; trial++ {
			m := NewManager(x, simnet.Params{}.Defaulted())
			pArc, pNode := []float64{0.02, 0.1, 0.3}[trial%3], []float64{0, 0.1, 0.4}[trial/3%3]
			for a := range m.dead {
				m.dead[a] = rng.Float64() < pArc
			}
			for v := range m.deadNode {
				m.deadNode[v] = rng.Float64() < pNode
			}
			j := rng.Intn(x.Gamma())
			c := x.DirectedCycle(j)
			src := topology.Node(rng.Intn(n))
			p := x.ID(j, src)
			route := make([]topology.Node, 0, n+4)
			for i := 0; i < n; i++ {
				route = append(route, c[(p+i)%n])
			}
			for i := rng.Intn(4); i > 0; i-- { // revisits, the source among them
				route = append(route, route[rng.Intn(len(route))])
			}
			got := make([]bool, n)
			for v := range got {
				got[v] = rng.Float64() < 0.3
			}
			o := &origin{route: route, got: got}
			if want, have := reference(m, o), m.shortestRoutes(o); !reflect.DeepEqual(have, want) {
				t.Fatalf("Q%d trial %d: one BFS gave %v, per-destination search %v", dim, trial, have, want)
			}
		}
	}
}

// copyLog records which data copies a run delivered, per (source,
// channel, receiver): retransmissions count, NAKs do not.
type copyLog struct {
	n, gamma int
	got      []bool
}

func (c *copyLog) OnHop(simnet.HopEvent) {}

func (c *copyLog) OnDeliver(d simnet.Delivery) {
	if d.ID.Seq >= 0 {
		c.got[(int(d.ID.Source)*c.gamma+d.ID.Channel)*c.n+int(d.Node)] = true
	}
}

// TestGaveUpCountsEachCopyOnce: Stats.GaveUp counts a copy once, when
// its origin is abandoned, and only if the copy never arrives after
// all, so Recovered + GaveUp ≤ Timeouts and GaveUp equals the copies
// the run never delivered. On Q4 with node 5 crashed every timed-out
// copy is recovered, yet an exhausted origin used to add its missing
// copies again at every route's missed deadline (GaveUp 36 against
// Timeouts 420 and Recovered 420); with node 0's neighbours crashed,
// node 0 is cut off and copies stay undelivered.
func TestGaveUpCountsEachCopyOnce(t *testing.T) {
	x := newIHC(t, topology.MustHypercube(4))
	n, gamma := x.N(), x.Gamma()
	p := simnet.Params{}.Defaulted()
	for _, crashed := range [][]topology.Node{{5}, {1, 2, 4, 8}} {
		tp := &fault.TemporalPlan{}
		for _, v := range crashed {
			tp.Nodes = append(tp.Nodes, fault.NodeFault{Node: v, Kind: fault.Crash})
		}
		inj, err := tp.Compile(x.Graph())
		if err != nil {
			t.Fatal(err)
		}
		log := &copyLog{n: n, gamma: gamma, got: make([]bool, n*gamma*n)}
		_, st, err := Run(x, core.Config{Eta: p.Mu, Params: p, SkipCopies: true, Fault: inj, Observe: log}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		undelivered := 0
		for i, got := range log.got {
			if src, dst := i/(gamma*n), i%n; src != dst && !got {
				undelivered++
			}
		}
		if st.Recovered+st.GaveUp > st.Timeouts || st.GaveUp != undelivered {
			t.Errorf("crashed %v: Timeouts %d, Recovered %d, GaveUp %d; want Recovered + GaveUp ≤ Timeouts and GaveUp = %d undelivered copies",
				crashed, st.Timeouts, st.Recovered, st.GaveUp, undelivered)
		}
	}
}
