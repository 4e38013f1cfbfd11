package observe

import (
	"fmt"
	"math/bits"

	"ihc/internal/core"
	"ihc/internal/repair"
	"ihc/internal/simnet"
)

// OracleConfig binds a live theorem oracle to one IHC execution.
type OracleConfig struct {
	// X is the algorithm instance whose invariants are checked; its
	// directed Hamiltonian cycles define the only legal data routes.
	X *core.IHC
	// Params are the run's timing parameters (defaulted like the run).
	Params simnet.Params
	// Eta is the interleaving distance of the observed run.
	Eta int
	// ExpectContentionFree asserts Theorem 3's precondition η >= μ
	// holds for this run: any data hop that blocks, buffers, or stalls
	// is then a violation. With it false (η < μ), contention is merely
	// counted — the sweep campaign asserts the count is nonzero,
	// proving the checker has teeth.
	ExpectContentionFree bool
	// ExpectFinish, when >= 0, requires the latest observed delivery
	// to land at exactly this time (Theorem 4's T = τ_S + (N-1)α for
	// η = μ = 1, or Table II's closed form in general). Negative skips
	// the check.
	ExpectFinish simnet.Time
	// ExpectCopies, when > 0, requires every ordered pair of distinct
	// nodes to end with exactly this many copies, each arriving on a
	// distinct directed cycle (the γ edge-disjoint copies of the
	// reliability argument). Costs O(N²) memory; 0 skips.
	ExpectCopies int
	// Light drops the O(N²) copy ledger and the per-packet timing
	// state, keeping only O(arcs) exclusivity state and counters — for
	// Q8..Q10-scale runs where the full oracle's memory is the
	// bottleneck. Route conformance, link exclusivity, contention
	// counting, and the exact-finish check all remain live.
	Light bool
}

// OracleStats are the oracle's counters after (or during) a run.
type OracleStats struct {
	Hops       int
	DataHops   int
	Deliveries int
	Finish     simnet.Time // latest observed delivery

	// Contentions counts data hops that deviated from pure cut-through
	// relay: blocked on a busy transmitter, buffered, or stalled. Zero
	// is exactly Theorem 3's guarantee.
	Contentions int

	// Engine-soundness and theorem violations (all zero on a healthy
	// contention-free run):
	OverlapViolations   int // two packets occupying one directed link at once
	LateCuts            int // cut-through whose header departed != α after the previous hop
	RouteViolations     int // data hop off its compiled directed cycle
	OccupancyViolations int // receiving FIFO held more than μ flits
	SelfDeliveries      int // node received a copy of its own message
	DuplicateCopies     int // second copy of one message on one cycle at one node
	MissingCopies       int // (receiver, source) pairs short of ExpectCopies at Finalize
	FinishViolations    int // exact-finish mismatch at Finalize
	ExpectedContention  int // contention observed while ExpectContentionFree

	PeakOccupancy int // max flits simultaneously resident in one receiving FIFO
	Violations    int // total violations recorded
}

type arcState struct {
	end  simnet.Time
	id   simnet.PacketID
	used bool
}

// Oracle is a live invariant checker implementing simnet.Observer. It
// verifies, hop by hop, the paper's runtime claims for one IHC
// execution: Theorem 3 contention-freeness (η >= μ), per-FIFO
// occupancy <= μ flits, conformance of every data packet to its
// directed Hamiltonian cycle, γ edge-disjoint copies per (receiver,
// source) pair, engine link exclusivity, and Theorem 4's exact finish
// time. Call Finalize after the run; it returns an error iff any
// violation was observed.
//
// Repair-layer traffic (NAKs, retransmissions — recognized by the
// repair package's Seq conventions) is exempt from the cycle and
// contention checks but still subject to link exclusivity.
type Oracle struct {
	cfg   OracleConfig
	n     int
	gamma int
	alpha simnet.Time
	mu    int

	arcs  map[int]*arcState
	last  map[simnet.PacketID]simnet.Time // previous hop's header departure (full mode)
	chans []uint32                        // per (recv, src): bitmask of cycles delivered (ExpectCopies mode)

	stats      OracleStats
	violations []string
}

// maxViolationDetail caps the recorded violation strings; counting
// continues past the cap.
const maxViolationDetail = 12

// NewOracle validates the configuration and returns a live oracle.
func NewOracle(cfg OracleConfig) (*Oracle, error) {
	if cfg.X == nil {
		return nil, fmt.Errorf("observe: oracle needs an IHC instance")
	}
	cfg.Params = cfg.Params.Defaulted()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	n := cfg.X.N()
	if cfg.Eta < 1 || cfg.Eta > n {
		return nil, fmt.Errorf("observe: η = %d out of range [1,%d]", cfg.Eta, n)
	}
	if cfg.ExpectCopies > cfg.X.Gamma() {
		return nil, fmt.Errorf("observe: cannot expect %d copies from %d directed cycles",
			cfg.ExpectCopies, cfg.X.Gamma())
	}
	if cfg.Light {
		cfg.ExpectCopies = 0
	}
	o := &Oracle{
		cfg:   cfg,
		n:     n,
		gamma: cfg.X.Gamma(),
		alpha: cfg.Params.Alpha,
		mu:    cfg.Params.Mu,
		arcs:  make(map[int]*arcState),
	}
	if !cfg.Light {
		o.last = make(map[simnet.PacketID]simnet.Time)
	}
	if cfg.ExpectCopies > 0 {
		o.chans = make([]uint32, n*n)
	}
	if o.gamma > 32 {
		return nil, fmt.Errorf("observe: %d directed cycles exceed the 32-cycle copy ledger", o.gamma)
	}
	return o, nil
}

func (o *Oracle) violate(format string, args ...interface{}) {
	o.stats.Violations++
	if len(o.violations) < maxViolationDetail {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// OnHop implements simnet.Observer.
func (o *Oracle) OnHop(h simnet.HopEvent) {
	o.stats.Hops++

	// Link exclusivity: the engine must never let two packets occupy
	// one directed link in overlapping intervals — for η >= μ this is
	// Theorem 3 made observable, and for η < μ it still holds because
	// contention is resolved by buffering, never by sharing the wire.
	as := o.arcs[h.Arc]
	if as == nil {
		as = &arcState{}
		o.arcs[h.Arc] = as
	}
	if as.used && h.HeaderDepart < as.end && h.ID != as.id {
		o.stats.OverlapViolations++
		o.violate("link %d→%d: %v departs at %d while %v occupies it until %d",
			h.From, h.To, h.ID, h.HeaderDepart, as.id, as.end)
	}
	if !as.used || h.TailArrive > as.end {
		as.end, as.id, as.used = h.TailArrive, h.ID, true
	}

	if repair.Classify(h.ID) != repair.TrafficData {
		return
	}
	o.stats.DataHops++

	// Route conformance: hop k of the packet injected by source s on
	// directed cycle j must traverse the cycle's arc k positions past
	// ID_j(s). Pure arithmetic — no per-packet state.
	j := h.ID.Channel
	if j < 0 || j >= o.gamma {
		o.stats.RouteViolations++
		o.violate("%v: channel %d is not a directed cycle index [0,%d)", h.ID, j, o.gamma)
		return
	}
	cyc := o.cfg.X.DirectedCycle(j)
	pos := o.cfg.X.ID(j, h.ID.Source)
	if h.Hop >= o.n-1 {
		o.stats.RouteViolations++
		o.violate("%v: hop %d beyond the %d-hop cycle route", h.ID, h.Hop, o.n-1)
	} else if from, to := cyc[(pos+h.Hop)%o.n], cyc[(pos+h.Hop+1)%o.n]; h.From != from || h.To != to {
		o.stats.RouteViolations++
		o.violate("%v hop %d: traversed %d→%d, cycle %d expects %d→%d",
			h.ID, h.Hop, h.From, h.To, j+1, from, to)
	}

	// Theorem 3: with η >= μ every relay is a pure cut-through — a
	// blocked, buffered, or stalled data hop is contention.
	if h.Blocked || (h.Hop >= 1 && h.Kind != simnet.HopCut) {
		o.stats.Contentions++
		if o.cfg.ExpectContentionFree {
			o.stats.ExpectedContention++
			o.violate("%v hop %d (%d→%d): %s%s despite η >= μ",
				h.ID, h.Hop, h.From, h.To, h.Kind,
				map[bool]string{true: " (blocked)", false: ""}[h.Blocked])
		}
	}

	if o.last == nil {
		return
	}
	prev, ok := o.last[h.ID]
	o.last[h.ID] = h.HeaderDepart
	if h.Hop == 0 || !ok {
		return
	}
	// A cut-through header must leave exactly α after it left the
	// previous node — the pipelining Theorem 4's closed form rests on.
	span := h.HeaderDepart - prev
	if h.Kind == simnet.HopCut && span != o.alpha {
		o.stats.LateCuts++
		o.violate("%v hop %d: cut-through header departed %d ticks after previous hop, want α = %d",
			h.ID, h.Hop, span, o.alpha)
	}
	// FIFO occupancy at the relaying node: the header arrived at
	// h.From when it departed the previous node and flits drain at one
	// per α, so min(flits, ceil(span/α)) flits were simultaneously
	// resident. Theorem 3's corollary bounds this by μ.
	occ := int((span + o.alpha - 1) / o.alpha)
	if occ > h.Flits {
		occ = h.Flits
	}
	if occ > o.stats.PeakOccupancy {
		o.stats.PeakOccupancy = occ
	}
	if occ > o.mu {
		o.stats.OccupancyViolations++
		o.violate("%v hop %d: %d flits resident in node %d's FIFO, bound μ = %d",
			h.ID, h.Hop, occ, h.From, o.mu)
	}
}

// OnDeliver implements simnet.Observer.
func (o *Oracle) OnDeliver(d simnet.Delivery) {
	o.stats.Deliveries++
	if d.At > o.stats.Finish {
		o.stats.Finish = d.At
	}
	if repair.Classify(d.ID) != repair.TrafficData {
		return
	}
	if d.Node == d.ID.Source {
		o.stats.SelfDeliveries++
		o.violate("node %d received its own message back (%v)", d.Node, d.ID)
	}
	if o.chans == nil || d.ID.Channel < 0 || d.ID.Channel >= o.gamma {
		return
	}
	bit := uint32(1) << uint(d.ID.Channel)
	cell := &o.chans[int(d.Node)*o.n+int(d.ID.Source)]
	if *cell&bit != 0 {
		o.stats.DuplicateCopies++
		o.violate("node %d received a second copy of %d's message on cycle %d",
			d.Node, d.ID.Source, d.ID.Channel+1)
	}
	*cell |= bit
}

// Finalize runs the end-state checks and returns an error iff any
// violation was observed, live or final.
func (o *Oracle) Finalize() error {
	if o.cfg.ExpectFinish >= 0 && o.stats.Finish != o.cfg.ExpectFinish {
		o.stats.FinishViolations++
		o.violate("finish = %d, closed form expects exactly %d", o.stats.Finish, o.cfg.ExpectFinish)
	}
	if o.chans != nil && o.cfg.ExpectCopies > 0 {
		for r := 0; r < o.n; r++ {
			for s := 0; s < o.n; s++ {
				if r == s {
					continue
				}
				if got := bits.OnesCount32(o.chans[r*o.n+s]); got != o.cfg.ExpectCopies {
					o.stats.MissingCopies++
					o.violate("node %d holds %d edge-disjoint copies of %d's message, want %d",
						r, got, s, o.cfg.ExpectCopies)
				}
			}
		}
	}
	if o.stats.Violations == 0 {
		return nil
	}
	msg := ""
	for i, v := range o.violations {
		if i > 0 {
			msg += "; "
		}
		msg += v
	}
	if o.stats.Violations > len(o.violations) {
		msg += fmt.Sprintf("; ... (%d violations total)", o.stats.Violations)
	}
	return fmt.Errorf("observe: oracle found %d violation(s): %s", o.stats.Violations, msg)
}

// Stats returns the oracle's counters so far.
func (o *Oracle) Stats() OracleStats { return o.stats }
