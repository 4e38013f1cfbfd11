// Package simnet is a discrete-event simulator of point-to-point
// interconnection networks with virtual cut-through, wormhole, and
// store-and-forward switching, implementing exactly the timing model of
// Lee & Shin's analysis:
//
//   - τ_S (Params.TauS): message startup time paid whenever a packet is
//     injected or forwarded from intermediate storage;
//   - α (Params.Alpha): the delay for a packet header to cut through one
//     intermediate node's FIFO buffer;
//   - μ (Params.Mu): packet length in FIFO-buffer units, so the
//     transmission time of a whole packet is L·τ_L = μα;
//   - D (Params.D): additional queueing delay experienced by a packet
//     that found its transmitter busy.
//
// A cut-through hop therefore advances the header by α; a buffered hop
// costs full reception (μα) plus τ_S (plus D if the transmitter was
// busy). Every node can drive all of its transmitters and receivers
// concurrently (the paper's Fig. 7 HARTS-style architecture), and a node
// "tees" a copy of every packet that cuts through it, which is how a
// single packet circulating a directed Hamiltonian cycle delivers the
// message to all N-1 downstream nodes.
//
// Each directed link carries one packet at a time. The simulator counts
// every acquisition that found the link busy (a contention), so the IHC
// property "no two packets ever contend for the same link" is directly
// observable: a dedicated-mode run must report Contentions == 0.
// Background traffic from other tasks (the paper's ρ) is modeled per link
// as a deterministic seeded on/off renewal process occupying the fraction
// ρ of link capacity.
package simnet

import (
	"fmt"
	"math"
	"math/rand"

	"ihc/internal/topology"
)

// Time is simulated time in abstract ticks. The paper's headline numbers
// use 1 tick = 1 ns (α = 20).
type Time int64

// Mode selects the switching method.
type Mode int

const (
	// VirtualCutThrough advances headers directly from receiver to
	// transmitter; blocked packets are buffered at the node and later
	// forwarded store-and-forward style.
	VirtualCutThrough Mode = iota
	// StoreAndForward fully receives and re-transmits at every hop.
	StoreAndForward
	// Wormhole advances headers like cut-through, but blocked packets
	// stall in the network (no reception into intermediate storage) and
	// resume when the transmitter frees, paying only the queueing delay.
	Wormhole
)

func (m Mode) String() string {
	switch m {
	case VirtualCutThrough:
		return "virtual-cut-through"
	case StoreAndForward:
		return "store-and-forward"
	case Wormhole:
		return "wormhole"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Params collects the timing model and operating conditions of a network.
type Params struct {
	TauS  Time    // message startup time τ_S
	Alpha Time    // per-node cut-through delay α
	Mu    int     // packet length in FIFO-buffer units μ (>= 1)
	D     Time    // queueing delay when a transmitter is found busy
	Mode  Mode    // switching method
	Rho   float64 // background link utilization by other tasks, 0 <= ρ < 1
	Seed  int64   // seed for the background-traffic processes
}

// Defaulted returns p with unset fields replaced by the repository's
// standard experiment parameters (τ_S=100, α=20, μ=2, D=37 ticks,
// virtual cut-through). A fully zero Params selects all defaults. A
// partially filled Params keeps every field the caller set and defaults
// only the fields whose zero value is invalid (α and μ); explicit
// TauS=0 (free startup) and D=0 (no queueing penalty) are legitimate
// values and are preserved.
func (p Params) Defaulted() Params {
	def := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	if p == (Params{}) {
		return def
	}
	if p.Alpha == 0 {
		p.Alpha = def.Alpha
	}
	if p.Mu == 0 {
		p.Mu = def.Mu
	}
	return p
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.TauS < 0 || p.Alpha <= 0 || p.D < 0 {
		return fmt.Errorf("simnet: need TauS,D >= 0 and Alpha > 0, got τ_S=%d α=%d D=%d", p.TauS, p.Alpha, p.D)
	}
	if p.Mu < 1 {
		return fmt.Errorf("simnet: packet length μ must be >= 1, got %d", p.Mu)
	}
	if p.Rho < 0 || p.Rho >= 1 {
		return fmt.Errorf("simnet: background load ρ must be in [0,1), got %g", p.Rho)
	}
	return nil
}

// PacketTime returns μα, the time for a whole packet to cross one link.
func (p Params) PacketTime() Time { return Time(p.Mu) * p.Alpha }

// PacketID identifies a broadcast packet: the originating node, the
// logical channel it travels on (for IHC, the directed Hamiltonian cycle
// index; for tree-based baselines, the branch), and a sequence number for
// algorithms that send several packets per channel.
type PacketID struct {
	Source  topology.Node
	Channel int
	Seq     int
}

func (id PacketID) String() string {
	return fmt.Sprintf("pkt(src=%d ch=%d seq=%d)", id.Source, id.Channel, id.Seq)
}

// PacketSpec describes one packet to simulate: its identity, the exact
// node route it follows (len >= 2, consecutive nodes adjacent in the
// graph), and its injection time at Route[0]. If Tee is true every
// intermediate node on the route receives a copy as the packet passes
// (the HARTS "tee" operation); the final node always receives.
type PacketSpec struct {
	ID     PacketID
	Route  []topology.Node
	Inject Time
	Tee    bool
	// Flits is the packet length in FIFO-buffer units; 0 means the
	// network default μ. Store-and-forward algorithms that merge
	// messages (e.g. FRS) send progressively longer packets.
	Flits int
	// After lists indices (into the Run's spec slice) of packets this
	// packet depends on: it is injected only once every listed packet
	// has delivered a copy at this packet's Route[0], at the latest such
	// delivery time plus Inject (which is then a relative delay). This
	// models redirects (VRS/KS/VSQ: a node re-sends a packet it
	// received) and merges (FRS: a node combines two received messages
	// before relaying). Dependencies must be acyclic.
	After []int
	// Path, when non-nil, supplies this route's pre-compiled arc indices:
	// Route must equal the path's nodes [PathOff, PathOff+len(Route))
	// and the engine skips both per-hop adjacency resolution and the
	// duplicate-directed-link check for this spec — the caller certifies
	// the window repeats no directed link (a window of at most N nodes of
	// an IHC doubled Hamiltonian cycle never does). This is what keeps a
	// Q16-scale ATA's compiled-route footprint at O(γN) — one compiled
	// path per doubled cycle, shared by all N of its window routes —
	// instead of the O(γN²) of compiling every spec separately.
	Path    *CompiledPath
	PathOff int
}

// CompiledPath is a node path resolved to arc indices once, shared by
// every PacketSpec whose Route is a contiguous window of it. Compile
// with Network.CompilePath; a path is only valid for runs on the network
// that compiled it.
type CompiledPath struct {
	net   *Network
	nodes []topology.Node
	arcs  []int32 // arcs[i] = arc id of nodes[i] → nodes[i+1]
}

// CompilePath resolves and validates the node sequence against the
// network's adjacency once, so window routes referencing it skip per-hop
// resolution. The returned path aliases nodes; do not mutate it.
func (n *Network) CompilePath(nodes []topology.Node) (*CompiledPath, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("simnet: compiled path of %d nodes", len(nodes))
	}
	arcs := make([]int32, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		idx := n.arcIndex(nodes[i], nodes[i+1])
		if idx < 0 {
			return nil, fmt.Errorf("simnet: compiled path step %d: {%d,%d} not an edge of %s",
				i, nodes[i], nodes[i+1], n.g.Name())
		}
		arcs[i] = idx
	}
	return &CompiledPath{net: n, nodes: nodes, arcs: arcs}, nil
}

// window returns the arc slice for a spec routed over nodes
// [off, off+len(route)). The window's endpoints are checked against the
// route (a cheap guard against off-by-one staging bugs); interior
// equality is the caller's certification — checking it per spec would
// reintroduce the O(γN²) cost compiled paths exist to avoid.
func (p *CompiledPath) window(n *Network, off int, route []topology.Node) ([]int32, error) {
	if p.net != n {
		return nil, fmt.Errorf("simnet: compiled path belongs to a different network")
	}
	end := off + len(route)
	if off < 0 || end > len(p.nodes) {
		return nil, fmt.Errorf("simnet: path window [%d,%d) outside compiled path of %d nodes", off, end, len(p.nodes))
	}
	if route[0] != p.nodes[off] || route[len(route)-1] != p.nodes[end-1] {
		return nil, fmt.Errorf("simnet: route endpoints {%d,%d} disagree with path window {%d,%d}",
			route[0], route[len(route)-1], p.nodes[off], p.nodes[end-1])
	}
	return p.arcs[off : end-1 : end-1], nil
}

// Delivery records one node receiving one packet copy.
type Delivery struct {
	ID   PacketID
	Node topology.Node
	At   Time
	// Corrupted marks a copy whose payload was tainted by a fault hook at
	// some hop upstream of this receiver (always false without a hook).
	Corrupted bool
}

// FaultAction is a fault hook's verdict for one performed hop.
type FaultAction uint8

const (
	// FaultNone relays the copy faithfully.
	FaultNone FaultAction = iota
	// FaultCorrupt taints the packet's payload from this hop onward:
	// every downstream delivery (including this hop's receiver) is
	// recorded with Corrupted = true.
	FaultCorrupt
	// FaultDrop kills the copy before the hop is performed: the link is
	// not acquired, nothing is delivered at the next node, and no further
	// events are scheduled for the packet.
	FaultDrop
)

// FaultHook injects faults into the engine's relay path. It is consulted
// once per performed hop, immediately before the packet acquires the
// outgoing link — after the departure time is known, so temporal plans
// (a node that crashes mid-broadcast, a link that is down for a window
// and then recovers) can decide from the simulated clock. A nil hook
// costs one predictable branch per event; see internal/fault for the
// standard implementation.
//
// Hooks are consulted only for hops that are actually performed; a
// blocked virtual-cut-through attempt that falls back to buffering is
// consulted once, when the buffered send finally departs. Dropping a
// packet that later packets depend on (PacketSpec.After) leaves those
// dependents uninjected, which Run reports as an error — temporal fault
// injection is designed for dependency-free schedules like IHC's.
type FaultHook interface {
	// Relay decides the fate of the hop from→to of packet id. hop is the
	// index of `from` along the packet's route (0 = source injection; the
	// conventional fault models apply node relay faults only at hop >= 1,
	// matching fault.TemporalPlan.TraceRoute, where a source's own fault
	// is the caller's concern). depart is the header departure time at
	// `from`.
	Relay(id PacketID, hop int, from, to topology.Node, depart Time) FaultAction
}

// HopKind classifies how a hop was performed.
type HopKind int

const (
	HopInject HopKind = iota // source injection (startup + transmission)
	HopCut                   // cut-through at an intermediate node
	HopBuffer                // buffered: full reception + startup (+D if blocked)
	HopStall                 // wormhole stall: waited in network (+D)
)

func (k HopKind) String() string {
	switch k {
	case HopInject:
		return "inject"
	case HopCut:
		return "cut-through"
	case HopBuffer:
		return "buffered"
	case HopStall:
		return "stalled"
	default:
		return fmt.Sprintf("HopKind(%d)", int(k))
	}
}

// Result holds a run's counters. It is the one counter set of the
// simulator: core, atarun and frs embed it, and every chained run (a
// core stage, a serialized broadcast, an extra worker of a
// component-parallel run) folds into its caller's with Merge. Per-hop
// and per-delivery records never live here; they go to the sinks the
// caller passes in Options (Copies, Log, Ledger, Observe).
type Result struct {
	Finish       Time // latest delivery time (makespan)
	Deliveries   int  // total copies delivered (tee + final)
	Contentions  int  // link acquisitions that found the link busy with another broadcast packet
	BgBlocked    int  // link acquisitions delayed by background traffic
	CutThroughs  int  // hops performed as cut-throughs
	BufferedHops int  // hops performed from intermediate storage
	Stalls       int  // wormhole in-network stalls
	Injections   int  // packets injected
	// Events counts simulator events processed by the run. It is int64
	// explicitly — not platform int — because the paper's Q16 headline
	// run processes ~0.5·10¹² events, past 32-bit range; every counter a
	// Q16 run flows through carries the width end-to-end.
	Events      int64
	LinkBusy    Time // total busy time summed over all links (broadcast traffic only)
	FaultDrops  int  // hops canceled by the fault hook (copy killed in flight)
	FaultTaints int  // hops at which the fault hook corrupted a payload
}

// Merge adds o's counters into r and keeps the later Finish.
func (r *Result) Merge(o *Result) {
	r.Finish = max(r.Finish, o.Finish)
	r.Deliveries += o.Deliveries
	r.Contentions += o.Contentions
	r.BgBlocked += o.BgBlocked
	r.CutThroughs += o.CutThroughs
	r.BufferedHops += o.BufferedHops
	r.Stalls += o.Stalls
	r.Injections += o.Injections
	r.Events += o.Events
	r.LinkBusy += o.LinkBusy
	r.FaultDrops += o.FaultDrops
	r.FaultTaints += o.FaultTaints
}

// Utilization returns the fraction of total link capacity used by the
// broadcast operation over the makespan: LinkBusy / (links * Finish).
func (r *Result) Utilization(links int) float64 {
	if r.Finish <= 0 || links == 0 {
		return 0
	}
	return float64(r.LinkBusy) / (float64(links) * float64(r.Finish))
}

// CopyMatrix counts, for every (receiver, source) pair, how many copies of
// source's message the receiver obtained. It is a caller-owned sink
// (Options.Copies): the engine only adds to it, so one matrix serves any
// number of chained runs.
type CopyMatrix struct {
	n      int
	counts []uint16
}

// NewCopyMatrix returns a zeroed n x n copy-count matrix.
func NewCopyMatrix(n int) *CopyMatrix {
	return &CopyMatrix{n: n, counts: make([]uint16, n*n)}
}

// Add records one more copy of src's message at recv. Counts saturate at
// 65535 rather than silently wrapping to 0: chained multi-round runs on
// one matrix can exceed uint16, and a wrapped count would make VerifyATA
// report a missing delivery that in fact happened. A saturated cell still
// fails VerifyATA (it no longer equals the expected exact count), so the
// overflow is loud, never silent.
func (cm *CopyMatrix) Add(recv, src topology.Node) {
	if c := &cm.counts[int(recv)*cm.n+int(src)]; *c < math.MaxUint16 {
		*c++
	}
}

// Merge adds all counts of other into cm, saturating at 65535 like Add.
// The matrices must be the same size.
func (cm *CopyMatrix) Merge(other *CopyMatrix) {
	if other.n != cm.n {
		panic(fmt.Sprintf("simnet: merging %d-node matrix into %d-node matrix", other.n, cm.n))
	}
	for i, c := range other.counts {
		if s := uint32(cm.counts[i]) + uint32(c); s < math.MaxUint16 {
			cm.counts[i] = uint16(s)
		} else {
			cm.counts[i] = math.MaxUint16
		}
	}
}

// Get returns how many copies of src's message recv obtained.
func (cm *CopyMatrix) Get(recv, src topology.Node) int {
	return int(cm.counts[int(recv)*cm.n+int(src)])
}

// VerifyATA checks the all-to-all reliable broadcast postcondition: every
// node received exactly want copies of every other node's message (and
// none of its own, beyond returned copies which the algorithms suppress).
func (cm *CopyMatrix) VerifyATA(want int) error {
	for r := 0; r < cm.n; r++ {
		for s := 0; s < cm.n; s++ {
			got := int(cm.counts[r*cm.n+s])
			switch {
			case r == s && got != 0:
				return fmt.Errorf("simnet: node %d received %d copies of its own message", r, got)
			case r != s && got != want:
				return fmt.Errorf("simnet: node %d received %d copies from %d, want %d", r, got, s, want)
			}
		}
	}
	return nil
}

// MinCopies returns the smallest copy count over all ordered pairs of
// distinct nodes.
func (cm *CopyMatrix) MinCopies() int {
	minC := math.MaxInt
	for r := 0; r < cm.n; r++ {
		for s := 0; s < cm.n; s++ {
			if r == s {
				continue
			}
			if c := int(cm.counts[r*cm.n+s]); c < minC {
				minC = c
			}
		}
	}
	if minC == math.MaxInt {
		return 0
	}
	return minC
}

// Network is a simulatable instance of a graph plus switching parameters.
// Link state is flat and indexed by arc id (the position of the arc in
// g.Arcs()): one freeAt per directed link, and its background process
// only when ρ > 0. Because the graph's adjacency lists are sorted, the arc
// id of (u, v) is arcBase[u] plus the rank of v among u's neighbors, so
// route compilation resolves and validates each hop with a short scan of
// one adjacency list — the engine never hashes, not even at the
// construction/validation boundary.
type Network struct {
	g       *topology.Graph
	p       Params
	freeAt  []Time      // per arc: when its transmitter finishes its last packet
	bg      []bgProcess // per arc background traffic; nil when ρ = 0
	arcBase []int32     // arcBase[u] = number of arcs leaving nodes < u
}

// New builds a network over g with the given parameters.
func New(g *topology.Graph, p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Arc ids are int32 throughout the engine (compiled routes, the
	// component union-find); a graph whose 2M directed arcs
	// exceed that is a hard capacity limit, reported up front rather than
	// silently truncated. Q16 has 2M = 2²¹ arcs — about a thousandfold
	// of headroom.
	if 2*g.M() > math.MaxInt32 {
		return nil, fmt.Errorf("simnet: graph %s has %d directed arcs, exceeding the engine's int32 arc-index capacity", g.Name(), 2*g.M())
	}
	nn := g.N()
	n := &Network{
		g:       g,
		p:       p,
		freeAt:  make([]Time, 2*g.M()),
		arcBase: make([]int32, nn+1),
	}
	for u := 0; u < nn; u++ {
		n.arcBase[u+1] = n.arcBase[u] + int32(g.Degree(topology.Node(u)))
	}
	if p.Rho > 0 {
		// Each link's background process draws from its own RNG, seeded
		// by passing (Seed, arc id) through splitmix64. The per-stream
		// independence makes the ρ>0 traffic a pure function of (Seed,
		// arc id) — the order links are queried in can never perturb
		// another link's traffic, which is what lets parallel workers
		// reproduce the one-worker pattern exactly. The earlier xor-only
		// mixing kept whole seed bit-planes correlated across arcs;
		// splitmix64's full avalanche decorrelates neighboring arc ids.
		base := splitmix64(uint64(p.Seed))
		n.bg = make([]bgProcess, len(n.freeAt))
		for i := range n.bg {
			n.bg[i] = newBgProcess(rand.New(rand.NewSource(int64(splitmix64(base^(uint64(i)+1)*0x9e3779b97f4a7c15)))), p)
		}
	}
	return n, nil
}

// arcIndex resolves the directed link from→to to its dense arc id, or
// -1 when {from, to} is not an edge of the graph (including nodes out of
// range). The id equals the arc's position in g.Arcs().
func (n *Network) arcIndex(from, to topology.Node) int32 {
	if from < 0 || to < 0 || int(from) >= n.g.N() || int(to) >= n.g.N() {
		return -1
	}
	for i, v := range n.g.Neighbors(from) {
		if v == to {
			return n.arcBase[from] + int32(i)
		}
	}
	return -1
}
