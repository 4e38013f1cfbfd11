// Package core implements the paper's primary contribution: the IHC
// algorithm for interleaved all-to-all (ATA) reliable broadcast on
// class-Λ interconnection networks.
//
// Given a γ-regular graph with γ/2 undirected edge-disjoint Hamiltonian
// cycles (package hamilton), the algorithm orients every cycle both ways,
// obtaining γ directed HCs that partition the directed links, and runs η
// stages: in stage i, every node v with ID_j(v) ≡ i (mod η) injects its
// broadcast packet onto directed cycle HC_j, and every packet flows N-1
// hops around its cycle, being tee-copied by each node it cuts through.
// Because packets on one cycle stay η nodes apart and cycles share no
// directed links, no two packets ever contend for a link when η >= μ —
// every relay is a pure cut-through — and after all stages every node
// holds exactly γ copies of every other node's message, one per directed
// cycle, received over edge-disjoint paths.
package core

import (
	"fmt"

	"ihc/internal/hamilton"
	"ihc/internal/sched"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// IHC is an instance of the algorithm bound to a topology and its
// Hamiltonian decomposition.
type IHC struct {
	g          *topology.Graph
	undirected []hamilton.Cycle
	directed   []hamilton.Cycle // all anchored at N0 = node 0
	doubled    [][]topology.Node
	pos        [][]int // pos[j][v] = ID_j(v), distance from N0 along HC_j
}

// New validates the decomposition and prepares the γ directed Hamiltonian
// cycles. cycles must be edge-disjoint Hamiltonian cycles of g; for strict
// class-Λ membership len(cycles) == degree/2, but any non-empty subset is
// accepted (the paper's reduced-reliability mode for odd-dimensional
// hypercubes uses γ = degree-1).
func New(g *topology.Graph, cycles []hamilton.Cycle) (*IHC, error) {
	if len(cycles) == 0 {
		return nil, fmt.Errorf("core: no Hamiltonian cycles given for %s", g.Name())
	}
	if err := hamilton.VerifyDecomposition(g, cycles, false); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	deg, ok := g.IsRegular()
	if !ok {
		return nil, fmt.Errorf("core: %s is not regular", g.Name())
	}
	if 2*len(cycles) > deg {
		return nil, fmt.Errorf("core: %d cycles exceed degree %d of %s", len(cycles), deg, g.Name())
	}
	x := &IHC{g: g, undirected: cycles}
	for _, d := range hamilton.DirectedCycles(cycles) {
		// Anchor every directed cycle at N0 = node 0, so ID_j(v) is the
		// distance from N0 when traversing HC_j.
		anchored := d.Rotated(d.Positions()[0])
		x.directed = append(x.directed, anchored)
		double := make([]topology.Node, 0, 2*len(anchored))
		double = append(double, anchored...)
		double = append(double, anchored...)
		x.doubled = append(x.doubled, double)
		ids := make([]int, g.N())
		for i, v := range anchored {
			ids[v] = i
		}
		x.pos = append(x.pos, ids)
	}
	return x, nil
}

// Graph returns the underlying topology.
func (x *IHC) Graph() *topology.Graph { return x.g }

// N returns the node count.
func (x *IHC) N() int { return x.g.N() }

// Gamma returns the number of directed Hamiltonian cycles γ — the number
// of copies of every message each node receives, and hence the algorithm's
// fault-tolerance degree (t <= γ-1 with signed messages).
func (x *IHC) Gamma() int { return len(x.directed) }

// DirectedCycle returns directed cycle HC_{j+1} (0-indexed j), anchored at
// N0.
func (x *IHC) DirectedCycle(j int) hamilton.Cycle { return x.directed[j] }

// ID returns ID_j(v): the distance from N0 to v along directed cycle j.
func (x *IHC) ID(j int, v topology.Node) int { return x.pos[j][v] }

// checkEta rejects interleaving distances outside [1, N] with a
// descriptive error instead of letting `mod η` panic with a bare
// integer-divide error deep in a scheduling loop.
func (x *IHC) checkEta(eta int) error {
	if eta < 1 || eta > x.N() {
		return fmt.Errorf("core: interleaving distance η = %d out of range [1,%d] on %s", eta, x.N(), x.g.Name())
	}
	return nil
}

// checkCycle rejects directed-cycle indices outside [0, γ).
func (x *IHC) checkCycle(j int) error {
	if j < 0 || j >= x.Gamma() {
		return fmt.Errorf("core: cycle index %d out of range [0,%d) on %s", j, x.Gamma(), x.g.Name())
	}
	return nil
}

// InitiationPattern returns, for directed cycle j and interleaving
// distance η, the stage in which each node initiates its packet, indexed
// by position along the cycle — the paper's Fig. 6 pattern
// (0,1,...,η-1,0,1,... around the cycle). η must be in [1, N] and j in
// [0, γ).
func (x *IHC) InitiationPattern(j, eta int) ([]int, error) {
	if err := x.checkCycle(j); err != nil {
		return nil, err
	}
	if err := x.checkEta(eta); err != nil {
		return nil, err
	}
	out := make([]int, x.N())
	for i := range out {
		out[i] = i % eta
	}
	return out, nil
}

// route returns the N-node route of the packet that node at position p of
// directed cycle j initiates: from v around the cycle to prev_j(v). The
// slice aliases shared backing storage; callers must not modify it.
func (x *IHC) route(j, p int) []topology.Node {
	return x.doubled[j][p : p+x.N()]
}

// StagePackets returns the packets initiated in stage i with interleaving
// distance η on the given directed cycles (nil means all), injected at t0
// plus any per-node skew. η must be in [1, N], the stage in [0, η), and
// every cycle index in [0, γ).
func (x *IHC) StagePackets(cycles []int, stage, eta int, t0 simnet.Time, skew SkewFunc) ([]simnet.PacketSpec, error) {
	if err := x.checkEta(eta); err != nil {
		return nil, err
	}
	if stage < 0 || stage >= eta {
		return nil, fmt.Errorf("core: stage %d out of range [0,%d) for η = %d", stage, eta, eta)
	}
	if cycles == nil {
		cycles = allCycles(x.Gamma())
	}
	var specs []simnet.PacketSpec
	for _, j := range cycles {
		if err := x.checkCycle(j); err != nil {
			return nil, err
		}
		c := x.directed[j]
		for p := stage; p < len(c); p += eta {
			inject := t0
			if skew != nil {
				inject += skew(c[p], stage)
			}
			specs = append(specs, simnet.PacketSpec{
				ID:     simnet.PacketID{Source: c[p], Channel: j, Seq: stage},
				Route:  x.route(j, p),
				Inject: inject,
				Tee:    true,
			})
		}
	}
	return specs, nil
}

func allCycles(gamma int) []int {
	out := make([]int, gamma)
	for i := range out {
		out[i] = i
	}
	return out
}

// SkewFunc perturbs a node's injection time in a given stage, modeling
// loose synchronization. It must be non-negative.
type SkewFunc func(v topology.Node, stage int) simnet.Time

// Config selects how an ATA broadcast is executed.
type Config struct {
	// Eta is the interleaving distance η >= 1. η >= μ is required for
	// contention-free operation; smaller values are permitted so the
	// degradation is observable, as are values with N mod η != 0 (the
	// wrap-around seam then spaces two initiators closer than η).
	Eta int
	// Params are the network timing parameters.
	Params simnet.Params
	// Overlap enables the modified IHC algorithm: each stage starts
	// (μ-1)α before the previous one completes, saving (η-1)(μ-1)α
	// overall ((μ-1)²α at η = μ); stages run in reverse index order, as
	// the paper notes.
	Overlap bool
	// Saturated runs the heavy-traffic limiting regime (Table IV).
	Saturated bool
	// Cycles restricts the broadcast to a subset of the γ directed
	// cycles (reduced reliability/time trade-off); nil means all.
	Cycles []int
	// Skew optionally perturbs per-node injection times.
	Skew SkewFunc
	// PerCycle lets each cycle advance to its next stage as soon as its
	// own previous stage finished ("the nodes on cycle HC_j can start on
	// stage i+1 immediately"), rather than waiting for the slowest cycle.
	PerCycle bool
	// Start offsets the whole broadcast's first stage.
	Start simnet.Time
	// SkipCopies turns off the O(N²) (receiver, source) copy matrix
	// that Run builds by default; Ledger keeps an O(N) check instead.
	SkipCopies bool
	// Scratch optionally supplies reusable simulator working memory,
	// shared by every stage of the run (and by subsequent runs that pass
	// the same Scratch). Nil gives the run a Scratch of its own, shared
	// by its stages and unreachable once Run returns, as its sinks are.
	// Must not be shared by concurrent runs.
	Scratch *simnet.Scratch
	// Fault, when non-nil, injects faults into every stage's relay path
	// (see simnet.FaultHook and fault.TemporalPlan.Compile). Stage
	// chaining still uses each stage's measured finish time, so a drop
	// that shortens a stage shifts the following stages earlier — exactly
	// the behaviour a temporal plan wants graded.
	Fault simnet.FaultHook
	// RecordDeliveries collects every delivery (with its corruption flag)
	// across all stages into Result.Deliveriesv, in simulation order
	// within each stage run. perfbench's traced repair.Run probe sets it,
	// and the engine and repair tests pin the ordered log through it;
	// the reliability graders tally copies through Observe instead.
	RecordDeliveries bool
	// Control attaches an online controller to every stage's simulation
	// run (see simnet.Controller): it observes deliveries, sets timers,
	// and may inject recovery traffic mid-stage. The repair layer's
	// Manager is the canonical implementation. Nil is the fast path.
	Control simnet.Controller
	// PatchRoutes, when non-nil, is handed each stage's packet specs
	// before the stage is simulated and may replace individual Route
	// slices (never modify them in place — they alias shared backing
	// storage). The repair layer uses it to detour subsequent stages
	// around links it has diagnosed dead.
	PatchRoutes func(specs []simnet.PacketSpec)
	// Observe, when non-nil, streams every performed hop and delivery
	// of every stage to an observability sink (see simnet.Observer and
	// internal/observe: metrics aggregators, live theorem oracles,
	// trace exporters). Nil is the fast path.
	Observe simnet.Observer
	// Ledger maintains the O(N) counters-only Theorem-4 copy ledger
	// (see simnet.CopyLedger) incrementally across every stage run,
	// exposed as Result.Ledger. Unlike the O(N²) Copies matrix its
	// footprint is two cache lines per node, so Q14+/Q16-scale runs can
	// verify the exact-γ-copies postcondition with bounded memory;
	// combine with SkipCopies for a fully counters-only run.
	Ledger bool
}

// Result aggregates an ATA broadcast execution: the simulator's counters
// summed over every stage run (Finish is the latest stage's), and the
// sinks the run allocated once and shared across its stages.
type Result struct {
	simnet.Result
	StageFinish []simnet.Time      // completion time of each stage (slowest cycle)
	Copies      *simnet.CopyMatrix // nil when SkipCopies
	Ledger      *simnet.CopyLedger // populated only when Config.Ledger
	Deliveriesv []simnet.Delivery  // populated only when RecordDeliveries
}

func (x *IHC) validate(cfg *Config) error {
	if err := x.checkEta(cfg.Eta); err != nil {
		return err
	}
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	for _, j := range cfg.Cycles {
		if err := x.checkCycle(j); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the full ATA reliable broadcast on a fresh simulated
// network and returns the aggregate result. Stages are chained
// adaptively: stage i+1 starts when stage i finishes (per cycle if
// cfg.PerCycle), or (μ-1)α earlier with cfg.Overlap — so in a dedicated
// network the measured Finish equals the paper's Table II closed form
// with no analytic scheduling baked in.
func (x *IHC) Run(cfg Config) (*Result, error) {
	if err := x.validate(&cfg); err != nil {
		return nil, err
	}
	res := x.begin(&cfg)
	if err := x.run(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// begin allocates what a Run owns: the sinks cfg asks for, one copy
// matrix and one ledger that every stage run adds to (the engine grows
// the delivery log in place), and a Scratch for its stages when cfg
// brings none.
func (x *IHC) begin(cfg *Config) *Result {
	if cfg.Scratch == nil {
		cfg.Scratch = simnet.NewScratch()
	}
	res := &Result{}
	if !cfg.SkipCopies {
		res.Copies = simnet.NewCopyMatrix(x.N())
	}
	if cfg.Ledger {
		res.Ledger = simnet.NewCopyLedger(x.N())
	}
	return res
}

// run executes the stages of one broadcast on a fresh network, adding
// every delivery to res's sinks and merging every stage's counters into
// res.
func (x *IHC) run(cfg Config, res *Result) error {
	net, err := simnet.New(x.g, cfg.Params)
	if err != nil {
		return err
	}
	opts := simnet.Options{
		Copies:    res.Copies,
		Saturated: cfg.Saturated,
		Fault:     cfg.Fault,
		Control:   cfg.Control,
		Observe:   cfg.Observe,
		Ledger:    res.Ledger,
	}
	if cfg.RecordDeliveries {
		opts.Log = &res.Deliveriesv
	}
	overlapLead := simnet.Time(0)
	if cfg.Overlap {
		overlapLead = simnet.Time(cfg.Params.Mu-1) * cfg.Params.Alpha
	}
	cycles := cfg.Cycles
	if cycles == nil {
		cycles = allCycles(x.Gamma())
	}
	stages := stageOrder(cfg.Eta, cfg.Overlap)
	paths := newPathCache(x, net)
	// runStage simulates stage i of the given cycles from start and
	// returns its finish time.
	runStage := func(cycles []int, i int, start simnet.Time) (simnet.Time, error) {
		specs, err := x.StagePackets(cycles, i, cfg.Eta, start, cfg.Skew)
		if err != nil {
			return 0, err
		}
		if cfg.PatchRoutes != nil {
			cfg.PatchRoutes(specs)
		}
		if err := paths.attach(specs); err != nil {
			return 0, err
		}
		r, err := net.RunScratch(specs, opts, cfg.Scratch)
		if err != nil {
			return 0, err
		}
		res.Merge(r)
		return r.Finish, nil
	}

	if cfg.PerCycle {
		// StageFinish is not meaningful per cycle; it stays empty.
		for _, j := range cycles {
			start := cfg.Start
			for _, i := range stages {
				finish, err := runStage([]int{j}, i, start)
				if err != nil {
					return err
				}
				start = finish - overlapLead
			}
		}
		return nil
	}

	start := cfg.Start
	for _, i := range stages {
		finish, err := runStage(cycles, i, start)
		if err != nil {
			return err
		}
		res.StageFinish = append(res.StageFinish, finish)
		start = finish - overlapLead
	}
	return nil
}

// pathCache shares one compiled route per directed doubled cycle across
// all N window routes that reference it — per spec the engine then skips
// per-hop adjacency resolution, and a run's compiled-route footprint
// drops from O(γN²) to O(γN). At the paper's Q16 headline (N = 65536,
// γ = 8) that is the difference between ~100 MB and ~140 GB of arc
// tables per stage. Cycles are compiled lazily on first use.
type pathCache struct {
	x     *IHC
	net   *simnet.Network
	paths []*simnet.CompiledPath // per directed cycle, nil until first used
}

func newPathCache(x *IHC, net *simnet.Network) *pathCache {
	return &pathCache{x: x, net: net, paths: make([]*simnet.CompiledPath, x.Gamma())}
}

// attach annotates each spec whose Route still is the canonical window of
// its cycle's doubled path with that path. Identity is established by
// slice identity (same backing array position and length), so a route a
// patcher replaced — e.g. the repair layer detouring a dead link — never
// matches and simply compiles per hop; no caller contract required.
func (pc *pathCache) attach(specs []simnet.PacketSpec) error {
	for i := range specs {
		s := &specs[i]
		j := s.ID.Channel
		if j < 0 || j >= len(pc.paths) || len(s.Route) != pc.x.N() {
			continue
		}
		p := pc.x.pos[j][s.ID.Source]
		if &s.Route[0] != &pc.x.doubled[j][p] {
			continue
		}
		if pc.paths[j] == nil {
			cp, err := pc.net.CompilePath(pc.x.doubled[j])
			if err != nil {
				return err
			}
			pc.paths[j] = cp
		}
		s.Path, s.PathOff = pc.paths[j], p
	}
	return nil
}

// stageOrder returns 0..η-1, or reversed when overlapping (the paper's
// modified IHC iterates the outer loop from η-1 down to 0). η < 1 yields
// no stages; callers validate η before scheduling.
func stageOrder(eta int, overlap bool) []int {
	if eta < 1 {
		return nil
	}
	out := make([]int, eta)
	for i := range out {
		if overlap {
			out[i] = eta - 1 - i
		} else {
			out[i] = i
		}
	}
	return out
}

// RunSequential executes the reduced mode for nodes that can only drive
// one incoming and one outgoing link at a time: k sequential invocations
// of the algorithm, one per directed cycle. Each node then receives k
// copies of every message (reliability/time trade-off, Section IV).
func (x *IHC) RunSequential(cfg Config, k int) (*Result, error) {
	if k < 1 || k > x.Gamma() {
		return nil, fmt.Errorf("core: k = %d out of range [1,%d]", k, x.Gamma())
	}
	cfg.Cycles = nil // each invocation runs one cycle of its own
	if err := x.validate(&cfg); err != nil {
		return nil, err
	}
	res := x.begin(&cfg)
	start := cfg.Start
	for j := 0; j < k; j++ {
		sub := cfg
		sub.Cycles = []int{j}
		sub.Start = start
		if err := x.run(sub, res); err != nil {
			return nil, err
		}
		start = res.Finish
	}
	return res, nil
}

// StaticSchedule builds the complete ideal-time packet schedule (all
// stages, analytic stage starts) for offline analysis, and returns it
// together with the per-stage start times.
func (x *IHC) StaticSchedule(cfg Config) ([]simnet.PacketSpec, []simnet.Time, error) {
	if err := x.validate(&cfg); err != nil {
		return nil, nil, err
	}
	p := cfg.Params
	stageTime := p.TauS + p.PacketTime() + simnet.Time(x.N()-2)*p.Alpha
	step := stageTime
	if cfg.Overlap {
		step -= simnet.Time(p.Mu-1) * p.Alpha
	}
	var specs []simnet.PacketSpec
	var starts []simnet.Time
	start := cfg.Start
	for _, i := range stageOrder(cfg.Eta, cfg.Overlap) {
		starts = append(starts, start)
		stage, err := x.StagePackets(cfg.Cycles, i, cfg.Eta, start, cfg.Skew)
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, stage...)
		start += step
	}
	return specs, starts, nil
}

// VerifyContentionFree statically checks the IHC invariant for the given
// configuration: with ideal cut-through timing, no two packets of the
// schedule ever occupy the same directed link at the same time. A
// configuration with η < μ violates the paper's contention-freedom
// precondition outright and is reported as such before any interval
// analysis runs.
func (x *IHC) VerifyContentionFree(cfg Config) error {
	if err := x.validate(&cfg); err != nil {
		return err
	}
	if cfg.Eta < cfg.Params.Mu {
		return fmt.Errorf("core: η = %d < μ = %d: contention-free operation requires interleaving distance η >= packet length μ",
			cfg.Eta, cfg.Params.Mu)
	}
	specs, _, err := x.StaticSchedule(cfg)
	if err != nil {
		return err
	}
	return sched.Verify(cfg.Params, specs)
}
