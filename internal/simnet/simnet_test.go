package simnet

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ihc/internal/topology"
)

func dedicated(mu int) Params {
	return Params{TauS: 100, Alpha: 20, Mu: mu, D: 37, Mode: VirtualCutThrough}
}

// pathRoute returns the route 0 -> 1 -> ... -> h along a cycle graph.
func pathRoute(h int) []topology.Node {
	r := make([]topology.Node, h+1)
	for i := range r {
		r[i] = topology.Node(i)
	}
	return r
}

func mustRun(t *testing.T, g *topology.Graph, p Params, specs []PacketSpec, o Options) *Result {
	t.Helper()
	n, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(specs, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hopTrace is an Observer that records each packet's hops in hop order.
type hopTrace map[PacketID][]HopEvent

func (tr hopTrace) OnHop(h HopEvent) { tr[h.ID] = append(tr[h.ID], h) }
func (hopTrace) OnDeliver(Delivery)  {}

func TestParamsValidate(t *testing.T) {
	good := dedicated(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{TauS: -1, Alpha: 1, Mu: 1},
		{TauS: 0, Alpha: 0, Mu: 1},
		{TauS: 0, Alpha: 1, Mu: 0},
		{TauS: 0, Alpha: 1, Mu: 1, D: -5},
		{TauS: 0, Alpha: 1, Mu: 1, Rho: 1.0},
		{TauS: 0, Alpha: 1, Mu: 1, Rho: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted: %+v", i, p)
		}
	}
}

// A single packet over h hops in an otherwise empty cut-through network
// finishes at τ_S + (h-1)α + μα: one startup, h-1 cut-throughs, and the
// pipelined transmission — the paper's per-stage accounting.
func TestSinglePacketCutThroughTiming(t *testing.T) {
	g := topology.MustCycle(12)
	for _, mu := range []int{1, 2, 4} {
		for h := 1; h <= 11; h++ {
			p := dedicated(mu)
			res := mustRun(t, g, p, []PacketSpec{{
				ID:    PacketID{Source: 0},
				Route: pathRoute(h),
			}}, Options{})
			want := p.TauS + Time(h-1)*p.Alpha + p.PacketTime()
			if res.Finish != want {
				t.Fatalf("μ=%d h=%d: finish = %d, want %d", mu, h, res.Finish, want)
			}
			if res.CutThroughs != h-1 || res.BufferedHops != 0 || res.Contentions != 0 {
				t.Fatalf("μ=%d h=%d: cuts=%d buf=%d cont=%d", mu, h, res.CutThroughs, res.BufferedHops, res.Contentions)
			}
		}
	}
}

// The same packet under store-and-forward costs h(τ_S + μα).
func TestSinglePacketStoreAndForwardTiming(t *testing.T) {
	g := topology.MustCycle(12)
	for _, mu := range []int{1, 3} {
		for h := 1; h <= 11; h++ {
			p := dedicated(mu)
			p.Mode = StoreAndForward
			res := mustRun(t, g, p, []PacketSpec{{
				ID:    PacketID{Source: 0},
				Route: pathRoute(h),
			}}, Options{})
			want := Time(h) * (p.TauS + p.PacketTime())
			if res.Finish != want {
				t.Fatalf("μ=%d h=%d: finish = %d, want %d", mu, h, res.Finish, want)
			}
			if res.CutThroughs != 0 {
				t.Fatalf("S&F performed cut-throughs")
			}
		}
	}
}

// Saturated mode reproduces the worst-case per-hop cost τ_S + μα + D of
// the paper's Table IV analysis.
func TestSinglePacketSaturatedTiming(t *testing.T) {
	g := topology.MustCycle(12)
	p := dedicated(2)
	for h := 1; h <= 11; h++ {
		res := mustRun(t, g, p, []PacketSpec{{
			ID:    PacketID{Source: 0},
			Route: pathRoute(h),
		}}, Options{Saturated: true})
		want := Time(h) * (p.TauS + p.PacketTime() + p.D)
		if res.Finish != want {
			t.Fatalf("h=%d: finish = %d, want %d", h, res.Finish, want)
		}
	}
}

// Wormhole and virtual cut-through are identical in an uncontended
// network.
func TestWormholeMatchesVCTWhenDedicated(t *testing.T) {
	g := topology.MustCycle(10)
	pv := dedicated(2)
	pw := dedicated(2)
	pw.Mode = Wormhole
	spec := []PacketSpec{{ID: PacketID{Source: 0}, Route: pathRoute(9), Tee: true}}
	rv := mustRun(t, g, pv, spec, Options{})
	rw := mustRun(t, g, pw, spec, Options{})
	if rv.Finish != rw.Finish || rv.CutThroughs != rw.CutThroughs {
		t.Fatalf("VCT %d/%d vs wormhole %d/%d", rv.Finish, rv.CutThroughs, rw.Finish, rw.CutThroughs)
	}
}

func TestTeeDeliversToEveryNodeOnRoute(t *testing.T) {
	g := topology.MustCycle(8)
	p := dedicated(2)
	copies := NewCopyMatrix(g.N())
	var log []Delivery
	res := mustRun(t, g, p, []PacketSpec{{
		ID:    PacketID{Source: 0},
		Route: pathRoute(7),
		Tee:   true,
	}}, Options{Copies: copies, Log: &log})
	if res.Deliveries != 7 {
		t.Fatalf("deliveries = %d, want 7", res.Deliveries)
	}
	for v := topology.Node(1); v <= 7; v++ {
		if copies.Get(v, 0) != 1 {
			t.Fatalf("node %d got %d copies", v, copies.Get(v, 0))
		}
	}
	// Tee delivery at node i happens when the tail passes: τ_S + (i-1)α + μα.
	for _, d := range log {
		i := Time(d.Node)
		want := p.TauS + (i-1)*p.Alpha + p.PacketTime()
		if d.At != want {
			t.Fatalf("delivery at node %d: t=%d, want %d", d.Node, d.At, want)
		}
	}
}

func TestWithoutTeeOnlyFinalNodeReceives(t *testing.T) {
	g := topology.MustCycle(8)
	copies := NewCopyMatrix(g.N())
	res := mustRun(t, g, dedicated(1), []PacketSpec{{
		ID:    PacketID{Source: 0},
		Route: pathRoute(5),
	}}, Options{Copies: copies})
	if res.Deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", res.Deliveries)
	}
	if copies.Get(5, 0) != 1 || copies.Get(3, 0) != 0 {
		t.Fatalf("copies wrong: final=%d mid=%d", copies.Get(5, 0), copies.Get(3, 0))
	}
}

// Two packets racing for the same link: the second is blocked, buffered,
// and the contention is counted.
func TestContentionDetectedAndResolved(t *testing.T) {
	// Path graph fragment of a cycle: both packets need link 2->3.
	g := topology.MustCycle(8)
	p := dedicated(2)
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2, 3, 4}},
		{ID: PacketID{Source: 2, Channel: 1}, Route: []topology.Node{2, 3, 4, 5}, Inject: 10},
	}
	res := mustRun(t, g, p, specs, Options{})
	if res.Contentions == 0 {
		t.Fatalf("expected contention on link 2->3")
	}
	// Packet 0 reaches link 2->3 at τ_S+2α (header) while packet 1
	// occupies it from τ_S to τ_S+μα; with α=20, μα=40, packet 0's
	// request at τ_S+40 collides exactly at the boundary... ensure both
	// packets still complete and the blocked one was buffered or delayed.
	if res.Deliveries != 2 {
		t.Fatalf("deliveries = %d", res.Deliveries)
	}
	if res.BufferedHops == 0 {
		t.Fatalf("blocked packet was never buffered")
	}
}

// Interleaved pipeline: packets injected μ nodes apart on a ring never
// contend (the IHC invariant at η = μ), but injected closer they do.
func TestRingPipelineContentionBoundary(t *testing.T) {
	const n = 24
	g := topology.MustCycle(n)
	route := func(src int) []topology.Node {
		r := make([]topology.Node, n)
		for i := range r {
			r[i] = topology.Node((src + i) % n)
		}
		return r
	}
	for _, mu := range []int{1, 2, 3, 4} {
		for _, eta := range []int{1, 2, 3, 4, 6} {
			if n%eta != 0 {
				continue
			}
			p := dedicated(mu)
			var specs []PacketSpec
			for s := 0; s < n; s += eta {
				specs = append(specs, PacketSpec{
					ID:    PacketID{Source: topology.Node(s)},
					Route: route(s),
					Tee:   true,
				})
			}
			res := mustRun(t, g, p, specs, Options{})
			if eta >= mu && res.Contentions != 0 {
				t.Fatalf("μ=%d η=%d: unexpected contentions %d", mu, eta, res.Contentions)
			}
			if eta < mu && res.Contentions == 0 {
				t.Fatalf("μ=%d η=%d: expected contention, got none", mu, eta)
			}
		}
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	g := topology.MustCycle(6)
	n, err := New(g, dedicated(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := []PacketSpec{
		{ID: PacketID{}, Route: []topology.Node{0}},
		{ID: PacketID{}, Route: []topology.Node{0, 2}}, // not adjacent
		{ID: PacketID{}, Route: []topology.Node{0, 1}, Inject: -1},
	}
	for i, s := range bad {
		if _, err := n.Run([]PacketSpec{s}, Options{}); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := topology.MustSquareTorus(4)
	p := dedicated(2)
	p.Rho = 0.3
	p.Seed = 42
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2, 3}, Tee: true},
		{ID: PacketID{Source: 5, Channel: 1}, Route: []topology.Node{5, 1, 2, 6}, Tee: true},
		{ID: PacketID{Source: 12, Channel: 2}, Route: []topology.Node{12, 13, 14, 2, 1}, Tee: true},
	}
	run := func() (*Result, []Delivery) {
		var log []Delivery
		return mustRun(t, g, p, specs, Options{Log: &log}), log
	}
	a, la := run()
	b, lb := run()
	if *a != *b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	if !slices.Equal(la, lb) {
		t.Fatalf("delivery logs differ:\n%+v\n%+v", la, lb)
	}
}

func TestBackgroundTrafficDelaysPackets(t *testing.T) {
	g := topology.MustCycle(32)
	clean := dedicated(2)
	loaded := dedicated(2)
	loaded.Rho = 0.6
	loaded.Seed = 7
	spec := []PacketSpec{{ID: PacketID{Source: 0}, Route: pathRoute(31), Tee: true}}
	rc := mustRun(t, g, clean, spec, Options{})
	rl := mustRun(t, g, loaded, spec, Options{})
	if rl.Finish <= rc.Finish {
		t.Fatalf("ρ=0.6 finish %d not slower than dedicated %d", rl.Finish, rc.Finish)
	}
	if rl.BgBlocked == 0 {
		t.Fatalf("no background blocking recorded at ρ=0.6 over 31 hops")
	}
	// And the loaded run is still bounded by the all-buffered worst case.
	worst := Time(31) * (loaded.TauS + loaded.PacketTime() + loaded.D)
	// Background holding times can exceed D, so allow the generous bound
	// of worst case plus total background busy time.
	if rl.Finish > 10*worst {
		t.Fatalf("loaded finish %d implausibly large (worst-case %d)", rl.Finish, worst)
	}
}

func TestChainedRunsKeepLinkState(t *testing.T) {
	g := topology.MustCycle(6)
	n, err := New(g, dedicated(2))
	if err != nil {
		t.Fatal(err)
	}
	// First run occupies link 0->1 up to τ_S+μα.
	r1, err := n.Run([]PacketSpec{{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Second run injects at 0 again on the same link: must queue behind.
	r2, err := n.Run([]PacketSpec{{ID: PacketID{Source: 0, Seq: 1}, Route: []topology.Node{0, 1}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Contentions != 1 {
		t.Fatalf("second run saw %d contentions, want 1", r2.Contentions)
	}
	if r2.Finish <= r1.Finish {
		t.Fatalf("second packet finished at %d, not after %d", r2.Finish, r1.Finish)
	}
}

func TestCopyMatrixVerifyATA(t *testing.T) {
	cm := NewCopyMatrix(3)
	for r := topology.Node(0); r < 3; r++ {
		for s := topology.Node(0); s < 3; s++ {
			if r != s {
				cm.Add(r, s)
				cm.Add(r, s)
			}
		}
	}
	if err := cm.VerifyATA(2); err != nil {
		t.Fatal(err)
	}
	if cm.MinCopies() != 2 {
		t.Fatalf("MinCopies = %d", cm.MinCopies())
	}
	if err := cm.VerifyATA(3); err == nil {
		t.Fatalf("VerifyATA(3) should fail")
	}
	cm.Add(1, 1)
	if err := cm.VerifyATA(2); err == nil {
		t.Fatalf("self-copy not detected")
	}
}

func TestResultUtilization(t *testing.T) {
	r := &Result{Finish: 100, LinkBusy: 400}
	if u := r.Utilization(8); u != 0.5 {
		t.Fatalf("utilization = %g", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("zero links utilization = %g", u)
	}
	empty := &Result{}
	if u := empty.Utilization(8); u != 0 {
		t.Fatalf("empty utilization = %g", u)
	}
}

func TestModeAndHopKindStrings(t *testing.T) {
	if VirtualCutThrough.String() == "" || StoreAndForward.String() == "" || Wormhole.String() == "" {
		t.Fatal("empty mode string")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode string empty")
	}
	for _, k := range []HopKind{HopInject, HopCut, HopBuffer, HopStall, HopKind(42)} {
		if k.String() == "" {
			t.Fatal("empty hop kind string")
		}
	}
	if (PacketID{Source: 3, Channel: 1, Seq: 2}).String() == "" {
		t.Fatal("empty packet id string")
	}
}

// Property: for random hop counts and μ, cut-through is never slower than
// store-and-forward, and saturated is never faster than either.
func TestQuickModeOrdering(t *testing.T) {
	g := topology.MustCycle(16)
	f := func(hRaw, muRaw uint8) bool {
		h := int(hRaw)%15 + 1
		mu := int(muRaw)%4 + 1
		spec := []PacketSpec{{ID: PacketID{Source: 0}, Route: pathRoute(h)}}
		pv := dedicated(mu)
		ps := dedicated(mu)
		ps.Mode = StoreAndForward
		nv, _ := New(g, pv)
		ns, _ := New(g, ps)
		nsat, _ := New(g, pv)
		rv, err1 := nv.Run(spec, Options{})
		rs, err2 := ns.Run(spec, Options{})
		rsat, err3 := nsat.Run(spec, Options{Saturated: true})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return rv.Finish <= rs.Finish && rs.Finish <= rsat.Finish
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the trace of a dedicated single-packet run is internally
// consistent: hops are contiguous, departures non-decreasing, first hop is
// an injection, later hops cut-throughs.
func TestQuickTraceConsistency(t *testing.T) {
	g := topology.MustCycle(16)
	f := func(hRaw uint8) bool {
		h := int(hRaw)%15 + 1
		p := dedicated(2)
		n, _ := New(g, p)
		tr := hopTrace{}
		if _, err := n.Run([]PacketSpec{{ID: PacketID{Source: 0}, Route: pathRoute(h)}}, Options{Observe: tr}); err != nil {
			return false
		}
		trace := tr[PacketID{Source: 0}]
		if len(trace) != h {
			return false
		}
		for i, hop := range trace {
			if i == 0 && hop.Kind != HopInject {
				return false
			}
			if i > 0 {
				if hop.Kind != HopCut {
					return false
				}
				if hop.From != trace[i-1].To {
					return false
				}
				if hop.HeaderDepart < trace[i-1].HeaderDepart {
					return false
				}
			}
			if hop.TailArrive != hop.HeaderDepart+p.PacketTime() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDependencyInjection(t *testing.T) {
	g := topology.MustCycle(8)
	p := dedicated(2)
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: pathRoute(3), Tee: true},
		// Redirect at node 2: starts once packet 0 delivers there.
		{ID: PacketID{Source: 2, Channel: 1}, Route: []topology.Node{2, 3, 4}, After: []int{0}},
	}
	trace := hopTrace{}
	mustRun(t, g, p, specs, Options{Observe: trace})
	// Packet 0 tees at node 2 at τ_S + α + μα; packet 1 injects then,
	// departs τ_S later.
	tee := p.TauS + p.Alpha + p.PacketTime()
	tr := trace[PacketID{Source: 2, Channel: 1}]
	if len(tr) != 2 {
		t.Fatalf("child trace has %d hops", len(tr))
	}
	if tr[0].HeaderDepart != tee+p.TauS {
		t.Fatalf("child departed at %d, want %d", tr[0].HeaderDepart, tee+p.TauS)
	}
}

func TestDependencyMultipleParentsUsesLatest(t *testing.T) {
	g := topology.MustCycle(8)
	p := dedicated(1)
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2}, Tee: true},
		{ID: PacketID{Source: 4, Channel: 1}, Route: []topology.Node{4, 3, 2}, Inject: 500, Tee: true},
		// Merge at node 2 after both arrive, with 25 extra ticks of
		// processing.
		{ID: PacketID{Source: 2, Channel: 2}, Route: []topology.Node{2, 3}, After: []int{0, 1}, Inject: 25},
	}
	trace := hopTrace{}
	res := mustRun(t, g, p, specs, Options{Observe: trace})
	// Parent 1 arrives at 2 at 500+τ_S+α+μα; child departs +25+τ_S.
	arrive := Time(500) + p.TauS + p.Alpha + p.PacketTime()
	tr := trace[PacketID{Source: 2, Channel: 2}]
	if tr[0].HeaderDepart != arrive+25+p.TauS {
		t.Fatalf("merge departed at %d, want %d", tr[0].HeaderDepart, arrive+25+p.TauS)
	}
	if res.Injections != 3 {
		t.Fatalf("injections = %d", res.Injections)
	}
}

func TestDependencyNeverSatisfiedIsError(t *testing.T) {
	g := topology.MustCycle(8)
	n, err := New(g, dedicated(1))
	if err != nil {
		t.Fatal(err)
	}
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1}}, // delivers only at 1
		{ID: PacketID{Source: 5, Channel: 1}, Route: []topology.Node{5, 6}, After: []int{0}},
	}
	if _, err := n.Run(specs, Options{}); err == nil {
		t.Fatal("unsatisfiable dependency accepted")
	}
	// Cyclic dependencies must also error, not hang.
	cyc := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1}, After: []int{1}},
		{ID: PacketID{Source: 1, Channel: 1}, Route: []topology.Node{1, 0}, After: []int{0}},
	}
	if _, err := n.Run(cyc, Options{}); err == nil {
		t.Fatal("cyclic dependency accepted")
	}
	// Out-of-range and self dependencies are rejected up front.
	bad := []PacketSpec{{ID: PacketID{}, Route: []topology.Node{0, 1}, After: []int{5}}}
	if _, err := n.Run(bad, Options{}); err == nil {
		t.Fatal("out-of-range dependency accepted")
	}
	self := []PacketSpec{{ID: PacketID{}, Route: []topology.Node{0, 1}, After: []int{0}}}
	if _, err := n.Run(self, Options{}); err == nil {
		t.Fatal("self dependency accepted")
	}
}

func TestDependencyCycleReportedUpfront(t *testing.T) {
	g := topology.MustCycle(8)
	n, err := New(g, dedicated(1))
	if err != nil {
		t.Fatal(err)
	}
	// A 3-cycle hidden behind a clean prefix: detection must be up front
	// (Kahn), not a post-run "never injected" symptom, and must name the
	// cycle.
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1}},
		{ID: PacketID{Source: 1, Channel: 1}, Route: []topology.Node{1, 2}, After: []int{2}},
		{ID: PacketID{Source: 2, Channel: 2}, Route: []topology.Node{2, 3}, After: []int{3}},
		{ID: PacketID{Source: 3, Channel: 3}, Route: []topology.Node{3, 4}, After: []int{1}},
	}
	_, err = n.Run(specs, Options{})
	if err == nil {
		t.Fatal("cyclic dependency accepted")
	}
	if !strings.Contains(err.Error(), "dependency cycle") {
		t.Fatalf("error does not name the cycle: %v", err)
	}
}

func TestDuplicateRouteArcRejected(t *testing.T) {
	g := topology.MustCycle(8)
	n, err := New(g, dedicated(1))
	if err != nil {
		t.Fatal(err)
	}
	// 0→1 is used twice: the second traversal would silently corrupt the
	// link's busy-time bookkeeping, so it must be rejected.
	specs := []PacketSpec{{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 0, 1}}}
	if _, err := n.Run(specs, Options{}); err == nil {
		t.Fatal("route with duplicate directed arc accepted")
	}
	// Revisiting a node over distinct arcs stays legal (0→1, 1→2, 2→1).
	ok := []PacketSpec{{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2, 1}}}
	if _, err := n.Run(ok, Options{}); err != nil {
		t.Fatalf("node-revisiting route rejected: %v", err)
	}
}

func TestDuplicateAfterEntryRejected(t *testing.T) {
	g := topology.MustCycle(8)
	n, err := New(g, dedicated(1))
	if err != nil {
		t.Fatal(err)
	}
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1}},
		{ID: PacketID{Source: 1, Channel: 1}, Route: []topology.Node{1, 2}, After: []int{0, 0}},
	}
	if _, err := n.Run(specs, Options{}); err == nil {
		t.Fatal("duplicate After entry accepted")
	}
}

// A parent whose route revisits the child's start node delivers there
// twice. The seed bug counted both deliveries against the child's pending
// total, releasing it before its other parent had arrived.
func TestDuplicateParentDeliveryDoesNotReleaseChild(t *testing.T) {
	g := topology.MustCycle(8)
	p := dedicated(1)
	specs := []PacketSpec{
		// Delivers at node 1 twice: mid-route tee and final delivery.
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2, 1}, Tee: true},
		// The slow second parent, arriving at node 1 much later.
		{ID: PacketID{Source: 3, Channel: 1}, Route: []topology.Node{3, 2, 1}, Inject: 1000, Tee: true},
		{ID: PacketID{Source: 1, Channel: 2}, Route: []topology.Node{1, 0}, After: []int{0, 1}},
	}
	trace := hopTrace{}
	mustRun(t, g, p, specs, Options{Observe: trace})
	// Parent 1 reaches node 1 at 1000 + τ_S + α + μα; only then may the
	// child start, τ_S later.
	arrive := Time(1000) + p.TauS + p.Alpha + p.PacketTime()
	tr := trace[PacketID{Source: 1, Channel: 2}]
	if len(tr) != 1 {
		t.Fatalf("child trace has %d hops", len(tr))
	}
	if tr[0].HeaderDepart != arrive+p.TauS {
		t.Fatalf("child departed at %d, want %d (released by a duplicate delivery of parent 0?)",
			tr[0].HeaderDepart, arrive+p.TauS)
	}
}

func TestParamsDefaulted(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Params
		want Params
	}{
		{"zero gets all defaults", Params{}, Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}},
		{"full is untouched", Params{TauS: 1, Alpha: 2, Mu: 3, D: 4}, Params{TauS: 1, Alpha: 2, Mu: 3, D: 4}},
		{"partial keeps given fields", Params{TauS: 7}, Params{TauS: 7, Alpha: 20, Mu: 2, D: 0}},
		{"zero taus and d survive", Params{TauS: 0, Alpha: 5, Mu: 1, D: 0}, Params{Alpha: 5, Mu: 1}},
	} {
		if got := tc.in.Defaulted(); got != tc.want {
			t.Errorf("%s: Defaulted() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestResultCountsEvents(t *testing.T) {
	g := topology.MustCycle(8)
	res := mustRun(t, g, dedicated(2), []PacketSpec{
		{ID: PacketID{Source: 0}, Route: pathRoute(4), Tee: true},
	}, Options{})
	if res.Events <= 0 {
		t.Fatalf("Events = %d, want > 0", res.Events)
	}
}

func TestVariableFlitsTiming(t *testing.T) {
	g := topology.MustCycle(8)
	p := dedicated(2)
	p.Mode = StoreAndForward
	res := mustRun(t, g, p, []PacketSpec{{
		ID:    PacketID{Source: 0},
		Route: pathRoute(2),
		Flits: 7,
	}}, Options{})
	want := 2 * (p.TauS + 7*p.Alpha)
	if res.Finish != want {
		t.Fatalf("finish = %d, want %d", res.Finish, want)
	}
}
