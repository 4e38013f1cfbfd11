package reliable

import (
	"math/rand"
	"testing"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// TestTimedMatchesCombinatorial is the bridge theorem of the timed
// grader: for every static plan, running the schedule through the event
// engine with the compiled injector grades identically to TraceRoute
// fate propagation — same pairs, same correct/wrong/missing counts. A
// plan may name a link twice, broken and noisy, where loss dominates.
func TestTimedMatchesCombinatorial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range []*topology.Graph{topology.MustSquareTorus(4), topology.MustHexMesh(3)} {
		x := mustIHC(t, g)
		kr := NewKeyring(g.N(), 2)
		edges := g.Edges()
		for trial := 0; trial < 8; trial++ {
			p := &fault.TemporalPlan{Seed: rng.Int63()}
			for _, v := range rng.Perm(g.N())[:rng.Intn(4)] {
				p.Nodes = append(p.Nodes, fault.NodeFault{Node: topology.Node(v), Kind: fault.Kind(1 + rng.Intn(3))})
			}
			for _, corrupt := range []bool{false, true} {
				for i := 0; i < rng.Intn(3); i++ {
					e := edges[rng.Intn(len(edges))]
					p.Links = append(p.Links, fault.LinkFault{U: e.U, V: e.V, Until: fault.Forever, Corrupt: corrupt})
				}
			}
			for _, signed := range []bool{false, true} {
				want := mustEval(t, x, p, signed, kr)
				got, err := EvaluateTimed(x, p, signed, kr, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s trial %d signed=%v: timed %+v != combinatorial %+v\nplan: %+v",
						g.Name(), trial, signed, got, want, p)
				}
			}
		}
	}
}

// TestTimedFaultFree sanity-checks the fault-free timed path on a
// non-trivial config (overlapped stages).
func TestTimedFaultFree(t *testing.T) {
	g := topology.MustHypercube(4)
	x := mustIHC(t, g)
	out, err := EvaluateTimed(x, &fault.TemporalPlan{}, false, nil, core.Config{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if out.Pairs != n*(n-1) || out.Correct != out.Pairs {
		t.Fatalf("fault-free timed run: %+v", out)
	}
}

// TestTimedTemporalWindow exercises what only the timed grader can see:
// links that are down for a window and then recover affect only the
// packets in flight during the window. The placement isolates node 5 —
// all γ incident links broken — which when permanent makes every pair
// involving node 5 undeliverable; a window covering only stage 0 loses
// exactly the copies whose packets flew then (node 0, with ID_j(0) = 0 on
// every cycle, injects all its packets in stage 0, so the pair 0→5 is
// still lost; stage-1 packets get through), and a window past the run's
// finish is harmless.
func TestTimedTemporalWindow(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := mustIHC(t, g)
	const victim = topology.Node(5)

	var lfs []fault.LinkFault
	for _, v := range g.Neighbors(victim) {
		lfs = append(lfs, fault.LinkFault{U: victim, V: v, Until: fault.Forever})
	}
	wantBroken := mustEval(t, x, &fault.TemporalPlan{Links: lfs}, false, nil)
	// Isolated receiver + isolated sender: 2(N-1) missing pairs.
	if want := 2 * (g.N() - 1); wantBroken.Missing != want {
		t.Fatalf("isolating node %d: %+v, want %d missing", victim, wantBroken, want)
	}

	run := func(from, until simnet.Time) Outcome {
		t.Helper()
		tp := &fault.TemporalPlan{}
		for _, lf := range lfs {
			lf.From, lf.Until = from, until
			tp.Links = append(tp.Links, lf)
		}
		out, err := EvaluateTimed(x, tp, false, nil, core.Config{Eta: 2})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := run(0, fault.Forever); out != wantBroken {
		t.Fatalf("always-broken temporal links %+v != static grade %+v", out, wantBroken)
	}
	res, err := x.Run(core.Config{Eta: 2, Params: simnet.Params{}.Defaulted(), SkipCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	if out := run(res.Finish+1, fault.Forever); out.Missing != 0 || out.Correct != out.Pairs {
		t.Fatalf("window after the run still lost copies: %+v", out)
	}
	stage0 := run(0, res.StageFinish[0])
	if stage0.Missing == 0 {
		t.Fatalf("stage-0 window lost nothing: %+v", stage0)
	}
	if stage0.Missing >= wantBroken.Missing {
		t.Fatalf("stage-0 window lost %d pairs, permanent break lost %d — recovery had no effect",
			stage0.Missing, wantBroken.Missing)
	}
}

// TestTimedCrashMidRun: nodes that crash after stage 0 finishes let every
// stage-0 packet through untouched. Node 0 (ID_j(0) = 0 on every cycle)
// injects all its packets in stage 0, so a two-node crash placement that
// statically blocks some pair sourced at node 0 loses that pair
// crash-from-birth but saves it when the crash activates after stage 0 —
// the grade of the late crash is strictly better.
func TestTimedCrashMidRun(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := mustIHC(t, g)
	n := g.N()

	// Find two crash nodes that structurally cut all γ routes from source
	// 0 to some receiver (single crashes are always tolerated: each one
	// blocks only γ/2 of a pair's routes).
	var plan *fault.TemporalPlan
	for a := 1; a < n && plan == nil; a++ {
		for b := a + 1; b < n && plan == nil; b++ {
			cand := &fault.TemporalPlan{Nodes: []fault.NodeFault{
				{Node: topology.Node(a), Kind: fault.Crash},
				{Node: topology.Node(b), Kind: fault.Crash},
			}}
			for r := 1; r < n; r++ {
				if r == a || r == b {
					continue
				}
				cut, err := BlockablePair(x, cand, 0, topology.Node(r))
				if err != nil {
					t.Fatal(err)
				}
				if cut {
					plan = cand
					break
				}
			}
		}
	}
	if plan == nil {
		t.Fatal("no two-node crash placement blocks a source-0 pair on SQ4")
	}
	full := mustEval(t, x, plan, false, nil)
	if full.Missing == 0 {
		t.Fatalf("blocking placement lost nothing: %+v", full)
	}

	res, err := x.Run(core.Config{Eta: 2, Params: simnet.Params{}.Defaulted(), SkipCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	tp := &fault.TemporalPlan{}
	for _, nf := range plan.Nodes {
		tp.Nodes = append(tp.Nodes, fault.NodeFault{Node: nf.Node, Kind: fault.Crash, At: res.StageFinish[0] + 1})
	}
	late, err := EvaluateTimed(x, tp, false, nil, core.Config{Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if late.Pairs != full.Pairs {
		t.Fatalf("graded pair sets differ: %d vs %d", late.Pairs, full.Pairs)
	}
	if late.Correct <= full.Correct || late.Missing >= full.Missing {
		t.Fatalf("late crash %+v not strictly better than crash-from-birth %+v", late, full)
	}
}

// TestStaticGradersRejectTimedPlans: EvaluateIHC and BlockablePair have
// no clock, so each refuses a plan with a timed entry — a node fault
// that activates late, a window that opens late, or one that closes —
// instead of grading it as static; EvaluateTimed grades the same plans,
// and the same entries at time 0 and forever pass everywhere.
func TestStaticGradersRejectTimedPlans(t *testing.T) {
	x := mustIHC(t, topology.MustHypercube(3))
	check := func(name string, tp *fault.TemporalPlan, static bool) {
		t.Helper()
		if _, err := EvaluateIHC(x, tp, false, nil); (err == nil) != static {
			t.Errorf("%s: EvaluateIHC error %v, want static %v", name, err, static)
		}
		if _, err := BlockablePair(x, tp, 0, 7); (err == nil) != static {
			t.Errorf("%s: BlockablePair error %v, want static %v", name, err, static)
		}
		if _, err := EvaluateTimed(x, tp, false, nil, core.Config{}); err != nil {
			t.Errorf("%s: EvaluateTimed: %v", name, err)
		}
	}
	node := fault.NodeFault{Node: 3, Kind: fault.Crash}
	link := fault.LinkFault{U: 0, V: 1, Until: fault.Forever}
	check("static", &fault.TemporalPlan{Nodes: []fault.NodeFault{node}, Links: []fault.LinkFault{link}}, true)
	late := node
	late.At = 1
	check("late node", &fault.TemporalPlan{Nodes: []fault.NodeFault{late}}, false)
	opens := link
	opens.From = 1
	check("late window", &fault.TemporalPlan{Links: []fault.LinkFault{link, opens}}, false)
	closes := link
	closes.Until = 1000
	check("closing window", &fault.TemporalPlan{Links: []fault.LinkFault{closes}}, false)
}
