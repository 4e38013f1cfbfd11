package simnet

import (
	"reflect"
	"slices"
	"testing"

	"ihc/internal/topology"
)

// testWidths are the widths (see SetWidth) every width check runs at:
// one worker, powers of two, and a prime that loads workers unevenly.
var testWidths = []int{1, 2, 4, 7}

// mirrored appends to specs the mirror image of each packet on the
// n-node ring, which travels the ring the other way. The two directions
// share no directed link, so the run has at least two components.
func mirrored(n int, specs []PacketSpec) []PacketSpec {
	out := slices.Clip(specs)
	for _, s := range specs {
		r := make([]topology.Node, len(s.Route))
		for i, v := range s.Route {
			r[i] = topology.Node((n - int(v)) % n)
		}
		s.ID = PacketID{Source: r[0], Channel: 1, Seq: s.ID.Seq}
		s.Route = r
		out = append(out, s)
	}
	return out
}

// fullResult bundles what a run outputs, for deep comparison.
type fullResult struct {
	res        Result
	copies     *CopyMatrix
	deliveries []Delivery // nil unless the run kept a log
	workers    int        // workers the run planned
}

// capture runs specs on a fresh network at width w into a fresh copy
// matrix and, when log is set, a delivery log, which holds the run on
// one worker.
func capture(t *testing.T, g *topology.Graph, p Params, specs []PacketSpec, opts Options, log bool, w int) fullResult {
	t.Helper()
	defer SetWidth(w)()
	net, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	f := fullResult{copies: NewCopyMatrix(g.N())}
	opts.Copies = f.copies
	if log {
		opts.Log = &f.deliveries
	}
	if f.workers, err = net.PlannedWorkers(specs, opts); err != nil {
		t.Fatalf("width %d: %v", w, err)
	}
	res, err := net.RunScratch(specs, opts, nil)
	if err != nil {
		t.Fatalf("width %d: %v", w, err)
	}
	f.res = *res
	return f
}

// assertShardedIdentical runs the workload once with the delivery log
// on, which holds it on one worker, and then without it at every test
// width: every counter and the copy matrix must match the reference at
// every width. A parallel workload must plan several workers at every
// width above one; any other must stay on one.
func assertShardedIdentical(t *testing.T, g *topology.Graph, p Params, specs []PacketSpec, opts Options, parallel bool) {
	t.Helper()
	want := capture(t, g, p, specs, opts, true, 1)
	if want.res.Deliveries == 0 {
		t.Fatal("workload delivered nothing; equivalence check vacuous")
	}
	for _, w := range testWidths {
		got := capture(t, g, p, specs, opts, false, w)
		if several := parallel && w > 1; several != (got.workers > 1) {
			t.Fatalf("width %d: planned %d workers, want several: %t", w, got.workers, several)
		}
		if got.res != want.res {
			t.Errorf("width %d: counters differ:\n got %+v\nwant %+v", w, got.res, want.res)
		}
		if !reflect.DeepEqual(got.copies, want.copies) {
			t.Errorf("width %d: copy matrix differs", w)
		}
	}
}

func TestShardedIdenticalModes(t *testing.T) {
	g, specs := pipelineSpecs(32)
	specs = mirrored(32, specs)
	for _, mode := range []Mode{VirtualCutThrough, StoreAndForward, Wormhole} {
		t.Run(mode.String(), func(t *testing.T) {
			p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Mode: mode}
			assertShardedIdentical(t, g, p, specs, Options{}, true)
		})
	}
}

// TestShardedIdenticalContended drives every packet through the same few
// links (a short ring with long overlapping routes, in both directions)
// so same-tick link contention — the case the deterministic event key
// exists for — is exercised heavily.
func TestShardedIdenticalContended(t *testing.T) {
	g := topology.MustCycle(6)
	ring := make([]topology.Node, 12)
	for i := range ring {
		ring[i] = topology.Node(i % 6)
	}
	var specs []PacketSpec
	for s := 0; s < 6; s++ {
		specs = append(specs, PacketSpec{
			ID:    PacketID{Source: topology.Node(s)},
			Route: ring[s : s+6],
			Tee:   true,
		})
	}
	// τ_S = 0 and μ = 1 make the blocked-cut-through fallback land at the
	// exact timestamp of its evCut — the tightest tie the key must break.
	p := Params{TauS: 0, Alpha: 20, Mu: 1, D: 37}
	assertShardedIdentical(t, g, p, mirrored(6, specs), Options{}, true)
}

func TestShardedIdenticalBackground(t *testing.T) {
	g, specs := pipelineSpecs(24)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Rho: 0.35, Seed: 12345}
	assertShardedIdentical(t, g, p, mirrored(24, specs), Options{}, true)
}

func TestShardedIdenticalSaturated(t *testing.T) {
	g, specs := pipelineSpecs(16)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	assertShardedIdentical(t, g, p, mirrored(16, specs), Options{Saturated: true}, true)
}

func TestShardedIdenticalFlits(t *testing.T) {
	g, specs := pipelineSpecs(16)
	for i := range specs {
		specs[i].Flits = 1 + i%3
	}
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	assertShardedIdentical(t, g, p, mirrored(16, specs), Options{}, true)
}

// TestShardedIdenticalDeps runs a redirect chain, where each packet is
// injected only after its parent delivered at the child's source node:
// the After lists hold it on one worker at every width.
func TestShardedIdenticalDeps(t *testing.T) {
	g := topology.MustCycle(12)
	route := func(from, n int) []topology.Node {
		r := make([]topology.Node, n)
		for i := range r {
			r[i] = topology.Node((from + i) % 12)
		}
		return r
	}
	specs := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: route(0, 4), Tee: true},
		{ID: PacketID{Source: 3, Seq: 1}, Route: route(3, 4), Tee: true, After: []int{0}, Inject: 10},
		{ID: PacketID{Source: 6, Seq: 2}, Route: route(6, 4), Tee: true, After: []int{1}},
		{ID: PacketID{Source: 3, Channel: 1}, Route: route(3, 7), Tee: true, After: []int{0}},
		{ID: PacketID{Source: 9, Seq: 3}, Route: route(9, 4), Tee: true, After: []int{2, 3}},
	}
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	assertShardedIdentical(t, g, p, specs, Options{}, false)
}

// pureFault drops or taints hops as a pure function of its arguments,
// the shape internal/fault's compiled Injector has.
type pureFault struct{}

func (pureFault) Relay(id PacketID, hop int, from, to topology.Node, depart Time) FaultAction {
	h := uint64(id.Source)*2654435761 + uint64(hop)*97 + uint64(from)*13
	switch h % 11 {
	case 0:
		return FaultDrop
	case 1, 2:
		return FaultCorrupt
	default:
		return FaultNone
	}
}

// TestShardedIdenticalFaults: a fault hook holds the run on one worker
// at every width.
func TestShardedIdenticalFaults(t *testing.T) {
	g, specs := pipelineSpecs(24)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	assertShardedIdentical(t, g, p, mirrored(24, specs), Options{Fault: pureFault{}}, false)
}

// TestShardedWorkerClamp runs two components at a width of 64, far
// more than the graph's 6 arcs: planning must clamp to 2 workers rather
// than leave empty workers misrouting events.
func TestShardedWorkerClamp(t *testing.T) {
	g := topology.MustCycle(3)
	specs := mirrored(3, []PacketSpec{{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2}, Tee: true}})
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	want := capture(t, g, p, specs, Options{}, false, 1)
	got := capture(t, g, p, specs, Options{}, false, 64)
	if got.workers != 2 {
		t.Fatalf("width 64 planned %d workers for 2 components, want 2", got.workers)
	}
	if got.res != want.res || !reflect.DeepEqual(got.copies, want.copies) {
		t.Fatalf("clamped run differs: got %+v want %+v", got.res, want.res)
	}
}

// TestScratchReuseAcrossTopologies is the aliasing regression test: one
// Scratch serves runs on networks of very different sizes and shapes,
// on one worker and on several, interleaved — any stale compiled-route,
// dependency-table, or worker state leaking between runs shows up as a
// mismatch against a fresh-scratch reference.
func TestScratchReuseAcrossTopologies(t *testing.T) {
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	type workload struct {
		name  string
		g     *topology.Graph
		specs []PacketSpec
	}
	big, bigSpecs := pipelineSpecs(64)
	small, smallSpecs := pipelineSpecs(8)
	qube := topology.MustHypercube(3)
	var qubeSpecs []PacketSpec
	for s := 0; s < 8; s++ {
		// One 3-hop dimension-ordered route per source.
		qubeSpecs = append(qubeSpecs, PacketSpec{
			ID:    PacketID{Source: topology.Node(s)},
			Route: []topology.Node{topology.Node(s), topology.Node(s ^ 1), topology.Node(s ^ 1 ^ 2), topology.Node(s ^ 1 ^ 2 ^ 4)},
			Tee:   true,
		})
	}
	deps := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: []topology.Node{0, 1, 2}, Tee: true},
		{ID: PacketID{Source: 2, Seq: 1}, Route: []topology.Node{2, 3, 4}, After: []int{0}},
	}
	workloads := []workload{
		{"ring64", big, mirrored(64, bigSpecs)},
		{"q3", qube, qubeSpecs},
		{"ring8", small, smallSpecs},
		{"deps", topology.MustCycle(8), deps},
		{"ring64-again", big, mirrored(64, bigSpecs)},
	}
	sc := NewScratch()
	for _, wl := range workloads {
		for _, w := range []int{1, 3} {
			// The delivery log holds a run on one worker, so only the
			// one-worker runs keep it.
			fresh := capture(t, wl.g, p, wl.specs, Options{}, w == 1, w)
			net, err := New(wl.g, p)
			if err != nil {
				t.Fatal(err)
			}
			var log []Delivery
			opts := Options{Copies: NewCopyMatrix(wl.g.N())}
			if w == 1 {
				opts.Log = &log
			}
			restore := SetWidth(w)
			res, err := net.RunScratch(wl.specs, opts, sc)
			restore()
			if err != nil {
				t.Fatalf("%s width %d reused scratch: %v", wl.name, w, err)
			}
			if *res != fresh.res {
				t.Errorf("%s width %d: reused scratch differs from fresh:\n got %+v\nwant %+v",
					wl.name, w, *res, fresh.res)
			}
			if !reflect.DeepEqual(opts.Copies, fresh.copies) {
				t.Errorf("%s width %d: reused-scratch copy matrix differs", wl.name, w)
			}
			if !reflect.DeepEqual(log, fresh.deliveries) {
				t.Errorf("%s width %d: reused-scratch delivery log differs", wl.name, w)
			}
		}
	}
}

// TestCompiledPathWindows checks the shared-path route layout against
// per-hop compilation: specs referencing windows of one compiled doubled
// cycle must behave exactly like the same routes compiled individually.
func TestCompiledPathWindows(t *testing.T) {
	const n = 16
	g := topology.MustCycle(n)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	doubled := make([]topology.Node, 2*n)
	for i := range doubled {
		doubled[i] = topology.Node(i % n)
	}
	plain := make([]PacketSpec, 0, n/2)
	for s := 0; s < n; s += 2 {
		plain = append(plain, PacketSpec{
			ID:    PacketID{Source: topology.Node(s)},
			Route: doubled[s : s+n],
			Tee:   true,
		})
	}
	want := capture(t, g, p, plain, Options{}, true, 1)

	net, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := net.CompilePath(doubled)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]PacketSpec, len(plain))
	copy(shared, plain)
	for i := range shared {
		shared[i].Path, shared[i].PathOff = cp, int(shared[i].ID.Source)
	}
	copies := NewCopyMatrix(g.N())
	var log []Delivery
	res, err := net.Run(shared, Options{Copies: copies, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if *res != want.res {
		t.Errorf("compiled-path run differs: got %+v want %+v", *res, want.res)
	}
	if !reflect.DeepEqual(copies, want.copies) {
		t.Error("compiled-path copy matrix differs from per-hop compilation")
	}
	if !reflect.DeepEqual(log, want.deliveries) {
		t.Error("compiled-path delivery log differs from per-hop compilation")
	}

	// Misuse must fail loudly, not silently route over wrong arcs.
	bad := shared[:1:1]
	bad[0].PathOff = int(bad[0].ID.Source) + 1 // endpoints disagree with window
	if _, err := net.Run(bad, Options{}); err == nil {
		t.Error("mismatched path window accepted")
	}
	other, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(shared[:1], Options{}); err == nil {
		t.Error("compiled path accepted by a different network")
	}
}

// TestBackgroundSeedPerArc pins the satellite bugfix: background traffic
// is a pure function of (Seed, arc id). Two networks with the same seed
// must produce identical traffic; different seeds must not; and querying
// links in different orders (what sequential vs sharded engines do) must
// not change any link's pattern.
func TestBackgroundSeedPerArc(t *testing.T) {
	g := topology.MustCycle(8)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Rho: 0.5, Seed: 42}
	sample := func(net *Network, order []int) map[int][]Time {
		out := make(map[int][]Time)
		for _, i := range order {
			bg := &net.bg[i]
			var ts []Time
			for q := Time(0); q < 2000; q += 100 {
				free, _ := bg.freeFrom(q)
				ts = append(ts, free)
			}
			out[i] = ts
		}
		return out
	}
	a, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	fwd := []int{0, 1, 2, 3}
	rev := []int{3, 2, 1, 0}
	sa, sb := sample(a, fwd), sample(b, rev)
	for _, i := range fwd {
		if !reflect.DeepEqual(sa[i], sb[i]) {
			t.Errorf("arc %d: same seed, different query order: traffic differs", i)
		}
	}
	p2 := p
	p2.Seed = 43
	c, err := New(g, p2)
	if err != nil {
		t.Fatal(err)
	}
	sc := sample(c, fwd)
	same := 0
	for _, i := range fwd {
		if reflect.DeepEqual(sa[i], sc[i]) {
			same++
		}
	}
	if same == len(fwd) {
		t.Error("seeds 42 and 43 produced identical background traffic on every sampled arc")
	}
}
