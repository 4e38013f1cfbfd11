package harness

import (
	"fmt"
	"strings"

	"ihc/internal/campaign"
	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/reliable"
	"ihc/internal/sched"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
	"ihc/internal/wormhole"
)

func init() {
	register(Experiment{ID: "theorem4", Paper: "Theorem 4", Title: "Optimality of IHC with η=μ=1", Run: runTheorem4})
	register(Experiment{ID: "overlap", Paper: "Sec. VI-A", Title: "Modified IHC: overlapped stages save (μ-1)²α", Run: runOverlap})
	register(Experiment{ID: "headline", Paper: "Sec. VI-A", Title: "Headline numbers: 68.7 billion packets in under 2 ms", Run: runHeadline})
	register(Experiment{ID: "crossover", Paper: "Sec. VI-A", Title: "Crossovers: where IHC stops winning", Run: runCrossover})
	register(Experiment{ID: "reliability", Paper: "Sec. I/IV", Title: "Fault tolerance of the γ-copy delivery", Run: runReliability})
	register(Experiment{ID: "load", Paper: "Sec. VI", Title: "IHC under background traffic ρ (between Tables II and IV)", Run: runLoad})
	register(Experiment{ID: "utilization", Paper: "Sec. IV", Title: "Link utilization μ/η trade-off", Run: runUtilization})
	register(Experiment{ID: "wormhole", Paper: "Sec. IV", Title: "Wormhole deadlock and Dally-Seitz virtual channels", Run: runWormhole})
}

func newIHC(g *topology.Graph) (*core.IHC, error) {
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		return nil, err
	}
	return core.New(g, cycles)
}

// runTheorem4 verifies the optimality theorem: measured IHC time with
// η=μ=1 equals the lower bound τ_S+(N-1)α on every topology family.
func runTheorem4(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	p.Mu = 1
	graphs := []*topology.Graph{topology.MustHypercube(4), topology.MustSquareTorus(5), topology.MustHexMesh(3)}
	if !cfg.Quick {
		graphs = append(graphs, topology.MustHypercube(8), topology.MustSquareTorus(12), topology.MustHexMesh(5))
	}
	t := tablefmt.New("Theorem 4 — IHC with η=μ=1 meets the lower bound τ_S+(N-1)α exactly",
		"Network", "N", "Lower bound", "Measured", "Match")
	rows, err := sweep(cfg, len(graphs), func(i int, obs simnet.Observer) (row, error) {
		g := graphs[i]
		x, err := newIHC(g)
		if err != nil {
			return nil, err
		}
		res, err := x.Run(core.Config{Eta: 1, Params: p, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(res.Events)
		bound := model.OptimalATATime(p, g.N())
		if res.Finish != bound {
			return nil, fmt.Errorf("theorem4: %s measured %d != bound %d", g.Name(), res.Finish, bound)
		}
		return row{g.Name(), g.N(), bound, res.Finish, match(res.Finish, bound)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("the bound: γN(N-1) packets spread over N nodes' γ links each carrying N-1 packets of α")
	return []*tablefmt.Table{t}, nil
}

// runOverlap measures the modified IHC algorithm: stage i+1 starting
// (μ-1)α before stage i completes, reverse stage order, still
// contention-free, saving exactly (η-1)(μ-1)α.
func runOverlap(cfg Config) ([]*tablefmt.Table, error) {
	g := topology.MustHypercube(4)
	if !cfg.Quick {
		g = topology.MustHypercube(6)
	}
	x, err := newIHC(g)
	if err != nil {
		return nil, err
	}
	t := tablefmt.New(fmt.Sprintf("Modified IHC on %s — overlapped stages (η=μ)", g.Name()),
		"μ=η", "Plain", "Overlapped", "Saving", "(μ-1)²α", "Contentions")
	p := cfg.params()
	mus := []int{1, 2, 4}
	rows, err := sweep(cfg, len(mus), func(i int, obs simnet.Observer) (row, error) {
		mu := mus[i]
		pm := p
		pm.Mu = mu
		plain, err := x.Run(core.Config{Eta: mu, Params: pm, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		over, err := x.Run(core.Config{Eta: mu, Params: pm, Overlap: true, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(plain.Events + over.Events)
		want := simnet.Time((mu-1)*(mu-1)) * pm.Alpha
		if plain.Finish-over.Finish != want || over.Contentions != 0 {
			return nil, fmt.Errorf("overlap: μ=%d saving %d != %d or contended", mu, plain.Finish-over.Finish, want)
		}
		return row{mu, plain.Finish, over.Finish, plain.Finish - over.Finish, want, over.Contentions}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	return []*tablefmt.Table{t}, nil
}

// runHeadline reproduces the paper's quoted numbers with Dally's 20 ns
// cut-through time and τ_S = 0.5 ms: ATA on Q10 and on a 64K-node Q16,
// "over 68.7 billion packets sent and received in under 2 ms per stage
// window". The analytic values are cross-checked by simulation on Q10
// (Q16's 68.7e9 packet-hops are left to the model, as in the paper).
func runHeadline(cfg Config) ([]*tablefmt.Table, error) {
	t := tablefmt.New("Headline — IHC with η=μ=2, α=20 ns, τ_S=0.5 ms (1 tick = 1 ns)",
		"Network", "N", "Packets γN(N-1)", "Model total", "Per stage (less τ_S)", "Paper quotes")
	quotes := map[string]string{
		"Q10": "2τ_S + 0.02 ms per stage",
		"Q16": "2τ_S + 1.31 ms; 68.7e9 pkts in 1.81 ms",
	}
	for _, h := range model.Headlines() {
		perStage := h.TimeLessTau / 2
		t.Add(h.Name, fmt.Sprintf("%d", h.N), fmt.Sprintf("%.3g", float64(h.Packets)),
			ns(h.Time), ns(perStage), quotes[h.Name])
	}
	t.Note("the paper's '0.02 ms'/'1.31 ms' are per-stage times less startup: 2(N-2)α/2; with")
	t.Note("τ_S=0.5 ms the 64K-cube total is dominated by the two startups, matching '1.81 ms'")
	t.Note("for the transfer part (1.31 ms) plus one 0.5 ms startup")

	if !cfg.Quick {
		// Simulate Q10 end-to-end and check the model exactly.
		p := model.HeadlineParams()
		x, err := newIHC(topology.MustHypercube(10))
		if err != nil {
			return nil, err
		}
		res, err := x.Run(core.Config{Eta: 2, Params: p, SkipCopies: true})
		if err != nil {
			return nil, err
		}
		want := model.IHCBest(p, 1024, 2)
		v := tablefmt.New("Headline cross-check — Q10 simulated at 1 tick = 1 ns",
			"Measured", "Model", "Match", "Deliveries", "Contentions")
		v.Addf(ns(res.Finish), ns(want), match(res.Finish, want), res.Deliveries, res.Contentions)
		if res.Finish != want || res.Contentions != 0 {
			return nil, fmt.Errorf("headline: Q10 measured %d != model %d (contentions %d)", res.Finish, want, res.Contentions)
		}
		return []*tablefmt.Table{t, v}, nil
	}
	return []*tablefmt.Table{t}, nil
}

// runCrossover sweeps the interleaving distance η and reports where IHC
// stops beating each alternative, against the paper's closed-form bound
// η <= min{log2 N - 1, 2√((N-1)/3) - 2, 2√N - 3}; and the τ_S condition
// against FRS.
func runCrossover(cfg Config) ([]*tablefmt.Table, error) {
	mp := cfg.params()
	n := 1 << 6
	if !cfg.Quick {
		n = 1 << 10
	}
	sqM := 8
	hexM := 5
	if !cfg.Quick {
		sqM, hexM = 32, 19
	}
	bound := model.MaxEtaBeatingCutThroughBaselines(n)
	t := tablefmt.New(fmt.Sprintf("Crossover — largest η where IHC (N=%d) still beats each baseline (model)", n),
		"Baseline", "Crossover η (computed)", "Paper bound term")
	find := func(other simnet.Time) int {
		eta := 0
		for e := 1; e <= n; e++ {
			if model.IHCBest(mp, n, e) < other {
				eta = e
			} else {
				break
			}
		}
		return eta
	}
	t.Addf("VRS-ATA", find(model.VRSATABest(mp, n)), fmt.Sprintf("log2 N - 1 = %d", model.Log2(n)-1))
	t.Addf("KS-ATA", find(model.KSATABest(mp, hexM)), fmt.Sprintf("2sqrt((N-1)/3)-2 ≈ %d (hex N=%d)", 2*hexM-2, topology.HexMeshSize(hexM)))
	t.Addf("VSQ-ATA", find(model.VSQATABest(mp, sqM)), fmt.Sprintf("2sqrt(N)-3 = %d (torus N=%d)", 2*sqM-3, sqM*sqM))
	t.Addf("all cut-through", bound, "min of the three")
	t.Note("crossover η values exceed the paper's bound terms because the bounds compare per-broadcast")
	t.Note("path lengths while the full formulas multiply the baselines by N; the paper's point — η can")
	t.Note("grow to ~log N before IHC loses its lead — is what the computed columns confirm")

	// FRS condition: τ_S >= μ²α/2 at η=μ.
	f := tablefmt.New("IHC vs FRS at η=μ — the τ_S >= μ²α/2 condition", "τ_S", "μ²α/2", "Condition", "IHC beats FRS (model)")
	for _, tau := range []simnet.Time{10, 39, 40, 100, 1000} {
		pm := mp
		pm.TauS = tau
		cond := model.IHCBeatsFRS(pm)
		wins := model.IHCBest(pm, n, pm.Mu) < model.FRSBest(pm, n)
		f.Addf(tau, simnet.Time(pm.Mu*pm.Mu)*pm.Alpha/2, cond, wins)
	}
	return []*tablefmt.Table{t, f}, nil
}

// runReliability measures delivery correctness under node faults: signed
// vs unsigned voting, crash vs corrupt vs Byzantine, fault counts up to
// and beyond the Dolev / signed bounds.
func runReliability(cfg Config) ([]*tablefmt.Table, error) {
	g := topology.MustSquareTorus(4)
	trials := int64(10)
	if !cfg.Quick {
		g = topology.MustHexMesh(3)
		trials = 25
	}
	x, err := newIHC(g)
	if err != nil {
		return nil, err
	}
	kr := reliable.NewKeyring(g.N(), 77)
	gamma := x.Gamma()
	t := tablefmt.New(
		fmt.Sprintf("Reliability on %s — fraction of fault-free pairs delivered correctly (avg over %d fault placements)",
			g.Name(), trials),
		"Faults t", "Kind", "Unsigned", "Signed", "Bounds")
	bounds := fmt.Sprintf("Dolev %d / signed %d", reliable.DolevBound(gamma, g.N()), reliable.SignedBound(gamma))
	type cell struct {
		kind    fault.Kind
		tFaults int
	}
	var cells []cell
	for _, kind := range []fault.Kind{fault.Crash, fault.Corrupt, fault.Byzantine} {
		for _, tFaults := range []int{1, 2, gamma - 1, gamma + 1} {
			cells = append(cells, cell{kind, tFaults})
		}
	}
	// Each (kind, fault-count) cell averages over its own deterministic
	// fault placements and reads the shared IHC instance and keyring
	// read-only, so the cells fan out across the pool independently.
	rows, err := sweep(cfg, len(cells), func(i int, _ simnet.Observer) (row, error) {
		c := cells[i]
		var su, ss float64
		for seed := int64(0); seed < trials; seed++ {
			plan, err := fault.RandomNodeFaults(g.N(), c.tFaults, c.kind, seed*31+int64(c.tFaults))
			if err != nil {
				return row{}, err
			}
			ou, err := reliable.EvaluateIHC(x, plan, false, nil)
			if err != nil {
				return row{}, err
			}
			os, err := reliable.EvaluateIHC(x, plan, true, kr)
			if err != nil {
				return row{}, err
			}
			su += ou.CorrectFraction()
			ss += os.CorrectFraction()
		}
		return row{c.tFaults, c.kind.String(), su / float64(trials), ss / float64(trials), bounds}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("a single fault is always tolerated (it blocks one direction of one HC per cycle pair);")
	t.Note("signed voting never decides wrongly — it only loses pairs whose every cycle path is cut")

	front, err := adversarialFrontier(cfg)
	if err != nil {
		return nil, err
	}
	return []*tablefmt.Table{t, front}, nil
}

// adversarialFrontier runs the campaign adversary search over a few
// (topology, signedness, domain) series and tabulates the measured
// tolerance frontier: the largest t with no violating placement found
// and the smallest t where one was found (shrunk to a 1-minimal,
// engine-confirmed counterexample).
func adversarialFrontier(cfg Config) (*tablefmt.Table, error) {
	graphs := []*topology.Graph{topology.MustSquareTorus(4)}
	search := campaign.Search{Budget: 600, Samples: 200, CrossCheck: 251}
	if !cfg.Quick {
		graphs = append(graphs, topology.MustHexMesh(3))
		search = campaign.Search{Budget: 50000, Samples: 4000, CrossCheck: 997}
	}
	type series struct {
		label  string
		signed bool
		domain campaign.Domain
		kind   fault.Kind
		tMax   func(gamma int) int
	}
	all := []series{
		{"noisy links, unsigned", false, campaign.DomainLinks, fault.Corrupt, func(g int) int { return (g + 1) / 2 }},
		{"noisy links, signed", true, campaign.DomainLinks, fault.Corrupt, func(g int) int { return g }},
		{"crash nodes, unsigned", false, campaign.DomainNodes, fault.Crash, func(int) int { return 3 }},
	}
	type job struct {
		x  *core.IHC
		s  series
		tm int
	}
	var jobs []job
	for _, g := range graphs {
		x, err := newIHC(g)
		if err != nil {
			return nil, err
		}
		for _, s := range all {
			jobs = append(jobs, job{x, s, s.tMax(x.Gamma())})
		}
	}
	t := tablefmt.New("Adversarial tolerance frontier — worst-case fault placement per series",
		"Network", "Series", "Paper bound", "Max safe t", "Min broken t", "Placements", "Counterexample")
	rows, err := sweep(cfg, len(jobs), func(i int, _ simnet.Observer) (row, error) {
		j := jobs[i]
		f, err := campaign.RunFrontier(campaign.Point{
			X: j.x, Signed: j.s.signed, Domain: j.s.domain, Kind: j.s.kind, Seed: 1,
		}, search, j.tm)
		if err != nil {
			return nil, err
		}
		placements := 0
		for _, rep := range f.Reports {
			placements += rep.Placements
		}
		broken, cex := "none", "-"
		if f.MinBroken > 0 {
			broken = fmt.Sprintf("%d", f.MinBroken)
			last := f.Reports[len(f.Reports)-1]
			cex = strings.Join(last.Counterexample, " ")
		}
		return row{f.Topo, j.s.label, f.Bound, f.MaxSafe, broken, placements, cex}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("links are the domain where the bounds are exact (a faulty link touches at most one of a")
	t.Note("pair's γ arc-disjoint copies); the node bounds do not survive adversarial placement, since")
	t.Note("an interior node lies on γ/2 of a pair's routes — see cmd/faultcamp for the full campaign")
	return t, nil
}

// runLoad sweeps the background utilization ρ and shows measured IHC time
// moving from the Table II best case toward the Table IV worst case.
func runLoad(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	g := topology.MustSquareTorus(4)
	if !cfg.Quick {
		g = topology.MustSquareTorus(8)
	}
	x, err := newIHC(g)
	if err != nil {
		return nil, err
	}
	eta := p.Mu
	best := model.IHCBest(p, g.N(), eta)
	worst := model.IHCWorst(p, g.N(), eta)
	t := tablefmt.New(fmt.Sprintf("IHC on %s under background load (η=μ=%d)", g.Name(), eta),
		"ρ", "Measured", "vs best", "Cut-throughs kept", "BgBlocked hops")
	rhos := []float64{0, 0.2, 0.5, 0.8}
	rows, err := sweep(cfg, len(rhos), func(i int, obs simnet.Observer) (row, error) {
		rho := rhos[i]
		pr := p
		pr.Rho = rho
		pr.Seed = 4242
		res, err := x.Run(core.Config{Eta: eta, Params: pr, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(res.Events)
		if rho == 0 && res.Finish != best {
			return nil, fmt.Errorf("load: ρ=0 measured %d != best %d", res.Finish, best)
		}
		total := x.Gamma() * g.N() * (g.N() - 2)
		return row{fmt.Sprintf("%.1f", rho), res.Finish, ratio(res.Finish, best),
			fmt.Sprintf("%.1f%%", 100*float64(res.CutThroughs)/float64(total)), res.BgBlocked}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Addf("(best)", best, "1.0x", "100%", 0)
	t.Addf("(worst bound)", worst, ratio(worst, best), "0%", "-")
	t.Note("the general-ρ execution falls between the Table II and Table IV forms, as the paper states")
	return []*tablefmt.Table{t}, nil
}

// runUtilization verifies the μ/η link-utilization trade-off: larger η
// leaves proportionally more capacity to other traffic during the
// broadcast.
func runUtilization(cfg Config) ([]*tablefmt.Table, error) {
	p := cfg.params()
	g := topology.MustHypercube(4)
	if !cfg.Quick {
		g = topology.MustHypercube(6)
	}
	x, err := newIHC(g)
	if err != nil {
		return nil, err
	}
	t := tablefmt.New(fmt.Sprintf("Link utilization of the IHC broadcast on %s (μ=%d)", g.Name(), p.Mu),
		"η", "Measured utilization", "μ/η", "Static peak concurrency", "Time")
	links := 2 * g.M()
	etas := []int{2, 4, 8, 16}
	rows, err := sweep(cfg, len(etas), func(i int, obs simnet.Observer) (row, error) {
		eta := etas[i]
		res, err := x.Run(core.Config{Eta: eta, Params: p, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(res.Events)
		specs, _, err := x.StaticSchedule(core.Config{Eta: eta, Params: p})
		if err != nil {
			return nil, err
		}
		ivs := sched.IdealIntervals(p, specs)
		return row{eta, fmt.Sprintf("%.3f", res.Utilization(links)), fmt.Sprintf("%.3f", float64(p.Mu)/float64(eta)),
			sched.MaxConcurrency(ivs), res.Finish}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("utilization tracks μ/η (the steady-state fraction each link is held by broadcast packets);")
	t.Note("doubling η halves the load on normal traffic at the cost of doubling broadcast time")
	return []*tablefmt.Table{t}, nil
}

// runWormhole reproduces the Section IV wormhole discussion: dedicated
// η=μ operation needs no virtual channels; oversubscribed rings deadlock
// on one channel; Dally & Seitz's dateline virtual channels restore
// progress.
func runWormhole(cfg Config) ([]*tablefmt.Table, error) {
	n := 12
	if !cfg.Quick {
		n = 32
	}
	g := topology.MustCycle(n)
	t := tablefmt.New(
		fmt.Sprintf("Wormhole deadlock study on a %d-ring (flit-level model)", n),
		"Scenario", "VCs", "Dateline", "Outcome", "Steps", "Peak blocked")
	type scenario struct {
		name     string
		eta, mu  int
		vcs      int
		dateline bool
	}
	for _, sc := range []scenario{
		{"IHC spacing η=μ", 2, 2, 1, false},
		{"η=μ=1 (full ring rotates)", 1, 1, 1, false},
		{"oversubscribed η<μ", 1, 2, 1, false},
		{"oversubscribed, 2 VCs no dateline", 1, 2, 2, false},
		{"oversubscribed, Dally-Seitz VCs", 1, 2, 2, true},
	} {
		net, err := wormhole.New(g, sc.vcs)
		if err != nil {
			return nil, err
		}
		var packets []wormhole.Packet
		id := 0
		for s := 0; s < n; s += sc.eta {
			route := make([]topology.Node, n)
			for i := range route {
				route[i] = topology.Node((s + i) % n)
			}
			dl := -1
			if sc.dateline {
				dl = (n - s) % n
			}
			packets = append(packets, wormhole.Packet{ID: id, Route: route, Flits: sc.mu, Dateline: dl})
			id++
		}
		res, err := net.Run(packets, 1_000_000)
		if err != nil {
			return nil, err
		}
		outcome := "completed"
		if res.Deadlocked {
			outcome = fmt.Sprintf("DEADLOCK (%d-cycle wait)", len(res.WaitCycle))
		}
		t.Addf(sc.name, sc.vcs, sc.dateline, outcome, res.Steps, res.MaxQueued)
	}
	t.Note("the η >= μ interleaving is itself the deadlock-avoidance mechanism in dedicated mode;")
	t.Note("with other traffic, one Dally-Seitz dateline channel pair per link suffices (Section IV)")
	return []*tablefmt.Table{t}, nil
}
