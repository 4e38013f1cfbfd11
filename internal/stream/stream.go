// Package stream is the wall-clock IHC protocol node. It runs the
// interleaved all-to-all schedule on a transport.Endpoint as a sequence
// of epochs, each one full IHC all-to-all round, pipelined back-to-back
// into the η−μ link slack the interleaving schedule leaves idle. A
// one-shot round is a stream of one epoch with a fixed Payload, which
// is how cluster.Run and the ihcd daemon run it. Every epoch is
// HLC-stamped, at most MaxInflight rounds overlap (opening is deferred
// — backpressure — when the cap is hit), and each node's injection
// payload is an epoch batch multiplexing many client payloads from a
// bounded two-class ingress queue with token-bucket admission; under
// overload low-priority payloads are shed with an explicit ErrShed.
//
// The robustness core is the rejoin path: a node killed mid-stream
// restarts with no state, learns the current epoch from any peer —
// an explicit JOIN→EPOCH handshake, or passively from the epoch field
// of any signed frame — then catches up the rounds it missed through
// the same wall-clock NAK/pull planner every live round repairs
// with, while late-injecting its own copies for those rounds so that
// the survivors' stalled epochs complete too. Every completed epoch
// satisfies the exact γ-copy ledger postcondition, kill or no kill.
package stream

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"ihc/internal/core"
	"ihc/internal/hlc"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/simnet"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// MaxInflight caps concurrently open (live, non-stalled) epochs; epoch
// opening is deferred while the cap is hit.
const MaxInflight = 2

// maxAttempts bounds the NAKs a node sends per missing copy. It is
// patient: the provider may be a killed node that has not rejoined yet.
const maxAttempts = 60

// Config shapes one streaming node. A zero timing or repair field takes
// the default Defaulted writes.
type Config struct {
	IHC      *core.IHC
	Eta      int
	Self     topology.Node
	Endpoint transport.Endpoint
	Keyring  *reliable.Keyring
	// Epoch0 is the cluster-agreed wall-clock start of epoch 0's stage
	// 0; epoch e is scheduled at Epoch0 + e·Period.
	Epoch0 time.Time
	// Period is the epoch cadence. Pipelining happens when Period is
	// shorter than a full round (stages + relay + repair tail): up to
	// MaxInflight rounds overlap in the η−μ link slack.
	Period time.Duration
	// StageDur / HopLatency / Slack are the per-round timing model:
	// stage s of an epoch starts s·StageDur after it opens, and a copy
	// h hops from its source is pulled once its stage start plus
	// h·HopLatency plus Slack has passed. StageDur must comfortably
	// exceed the per-hop latency × the longest relay for fault-free
	// rounds to finish inside the schedule.
	StageDur   time.Duration
	HopLatency time.Duration
	Slack      time.Duration
	// Retry spaces each missing copy's pulls: after a copy's k-th NAK
	// the node waits Retry.Delay(k−1) for it, half that after a MISS.
	// Seed seeds each epoch's jitter.
	Retry transport.BackoffConfig
	// Retain is how many epochs of accepted-payload store are kept
	// after an epoch closes, to serve late pulls from rejoiners and
	// stragglers. Also bounds the rejoin catch-up horizon.
	Retain int
	// Epochs stops the stream after this many epochs (0 = run until
	// ctx is cancelled).
	Epochs int
	// Drain bounds how long after the last scheduled epoch the node
	// waits for stalled epochs to revive before finalizing them as
	// failed.
	Drain time.Duration
	// Join starts the node with no epoch base: it discovers the
	// current epoch from peers (JOIN handshake / any signed frame) and
	// catches up missed rounds within the Retain horizon.
	Join bool
	// Ingress shapes client-payload admission.
	Ingress IngressConfig
	// Payload, when set, bypasses the ingress/mux path: epoch e's
	// injection payload is exactly Payload(e). One-shot rounds inject
	// reliable.TruthPayload(Self) this way.
	Payload func(epoch uint32) []byte
	// Clock is the node's HLC; fresh if nil. Gauges may be shared by
	// the whole cluster (atomic deltas); nil is a no-op sink.
	Gauges *observe.StreamGauges
	Clock  *hlc.Clock
	// CollectPayloads keeps each epoch's store in its EpochResult
	// (tests); per-source channel sets are always kept.
	CollectPayloads bool
}

// Defaulted fills zero timing and repair fields with the wall-clock
// defaults: StageDur 50ms, Period 4·StageDur, HopLatency 1ms, Slack
// StageDur, Retain 64, Drain 5s, and the pull profile Retry of 10ms
// Base, 150ms Max, Factor 1.6 and Jitter 0.2 (Seed stays as given). A
// negative field is left as it is, for NewNode to reject.
func (c Config) Defaulted() Config {
	if c.StageDur == 0 {
		c.StageDur = 50 * time.Millisecond
	}
	if c.Period == 0 {
		c.Period = 4 * c.StageDur
	}
	if c.HopLatency == 0 {
		c.HopLatency = time.Millisecond
	}
	if c.Slack == 0 {
		c.Slack = c.StageDur
	}
	if c.Retain == 0 {
		c.Retain = 64
	}
	if c.Drain == 0 {
		c.Drain = 5 * time.Second
	}
	if c.Retry.Base == 0 {
		c.Retry.Base = 10 * time.Millisecond
	}
	if c.Retry.Max == 0 {
		c.Retry.Max = 150 * time.Millisecond
	}
	if c.Retry.Factor == 0 {
		c.Retry.Factor = 1.6
	}
	if c.Retry.Jitter == 0 {
		c.Retry.Jitter = 0.2
	}
	return c
}

// EpochResult is one node's verdict for one epoch.
type EpochResult struct {
	Epoch     uint32
	Node      topology.Node
	Completed bool // exact γ-copy postcondition reached
	CatchUp   bool // recovered after a rejoin, not live participation
	LedgerErr error
	Latency   time.Duration // scheduled start → local completion (live epochs)
	Repaired  int           // copies that arrived via the pull path
	Items     int           // client payloads delivered across all sources
	// Copies[s] lists, in channel order, the channels source s's copies
	// arrived on. Payloads is the epoch store (CollectPayloads only):
	// Payloads[s·γ + j] holds the bytes of source s's channel-j copy, nil
	// if it never arrived.
	Copies   map[topology.Node][]uint8
	Payloads [][]byte
}

// Result is a streaming node's final accounting.
type Result struct {
	Self     topology.Node
	Epochs   []EpochResult
	NaksSent int
	Stats    transport.EndpointStats
}

// epochState is one open round's protocol state.
type epochState struct {
	epoch    uint32
	started  time.Time // actual local open (injection base)
	planner  *planner
	store    [][]byte // accepted payloads by slot source·γ + channel; see keep
	ledger   *simnet.CopyLedger
	injected int    // own stages injected, always in stage order
	payload  []byte // own injection payload (epoch batch)
	repaired int
	catchup  bool
	stalled  bool // every pending copy exhausted; waiting on a revival
}

// Node runs the streaming protocol on one endpoint. Construct with
// NewNode, feed client payloads through Ingress(), drive with Run.
// All protocol state is owned by the Run goroutine; Ingress and Gauges
// are the only cross-goroutine surfaces.
type Node struct {
	cfg     Config
	ingress *Ingress

	n, gamma  int
	neighbors []topology.Node
	// pred[j] and succ[j] are this node's neighbors on directed cycle
	// j; providers[j] is the pull rotation for a copy missed on j: the
	// predecessor first, then the other neighbors.
	pred, succ []topology.Node
	providers  [][]topology.Node

	open     map[uint32]*epochState
	retained map[uint32][][]byte // closed epochs' stores, for serving pulls
	next     uint32              // next epoch to open
	highest  int64               // highest plausible epoch seen in any signed frame; -1 before the first
	joined   bool                // epoch base known
	joinIdx  int                 // JOIN target rotation
	joinAt   time.Time

	results  []EpochResult
	naksSent int
}

// NewNode validates cfg and prepares the streaming state.
func NewNode(cfg Config) (*Node, error) {
	if cfg.IHC == nil || cfg.Endpoint == nil || cfg.Keyring == nil {
		return nil, fmt.Errorf("stream: config needs IHC, Endpoint, and Keyring")
	}
	if cfg.Eta < 1 || cfg.Eta > cfg.IHC.N() {
		return nil, fmt.Errorf("stream: eta %d outside [1,%d]", cfg.Eta, cfg.IHC.N())
	}
	cfg = cfg.Defaulted()
	if cfg.StageDur < 0 || cfg.Period < 0 || cfg.HopLatency < 0 || cfg.Slack < 0 || cfg.Drain < 0 || cfg.Retain < 0 {
		return nil, fmt.Errorf("stream: negative setting: StageDur %s, Period %s, HopLatency %s, Slack %s, Drain %s, Retain %d",
			cfg.StageDur, cfg.Period, cfg.HopLatency, cfg.Slack, cfg.Drain, cfg.Retain)
	}
	if r := cfg.Retry; r.Base < 0 || r.Max < 0 || r.Factor < 1 || r.Jitter < 0 || r.Jitter >= 1 {
		return nil, fmt.Errorf("stream: Retry needs Base, Max ≥ 0, Factor ≥ 1 and Jitter in [0,1): %+v", r)
	}
	if cfg.Clock == nil {
		cfg.Clock = hlc.New()
	}
	nd := &Node{
		cfg:      cfg,
		ingress:  NewIngress(cfg.Ingress, cfg.Gauges),
		n:        cfg.IHC.N(),
		gamma:    cfg.IHC.Gamma(),
		open:     make(map[uint32]*epochState),
		retained: make(map[uint32][][]byte),
		highest:  -1,
		joined:   !cfg.Join,
	}
	nd.neighbors = cfg.IHC.Graph().Neighbors(cfg.Self)
	for j := 0; j < nd.gamma; j++ {
		c := cfg.IHC.DirectedCycle(j)
		p := cfg.IHC.ID(j, cfg.Self)
		pred := c[(p+nd.n-1)%nd.n]
		rot := []topology.Node{pred}
		for _, nb := range nd.neighbors {
			if nb != pred {
				rot = append(rot, nb)
			}
		}
		nd.pred = append(nd.pred, pred)
		nd.succ = append(nd.succ, c[(p+1)%nd.n])
		nd.providers = append(nd.providers, rot)
	}
	return nd, nil
}

// Ingress returns the node's client-payload admission queue.
func (nd *Node) Ingress() *Ingress { return nd.ingress }

func (nd *Node) scheduled(e uint32) time.Time {
	return nd.cfg.Epoch0.Add(time.Duration(e) * nd.cfg.Period)
}

// hops returns v's distance from source s along directed cycle j:
// (ID_j(v) − ID_j(s)) mod N.
func (nd *Node) hops(v, s topology.Node, j int) int {
	return (nd.cfg.IHC.ID(j, v) - nd.cfg.IHC.ID(j, s) + nd.n) % nd.n
}

func (nd *Node) stageOf(s topology.Node, j int) int {
	return nd.cfg.IHC.ID(j, s) % nd.cfg.Eta
}

// slot returns the epoch store index of source s's copy on channel
// ch, source·γ + channel: the one key of a copy in the store, the
// planner and EpochResult.Payloads. It is -1 when (s, ch) names no copy
// of this network (an unsigned NAK or MISS can claim anything).
func (nd *Node) slot(s topology.Node, ch uint8) int {
	if s < 0 || int(s) >= nd.n || int(ch) >= nd.gamma {
		return -1
	}
	return int(s)*nd.gamma + int(ch)
}

// keep stores a copy's payload in an empty slot of an epoch store.
// The γ copies of one source normally carry the same bytes, so a copy
// equal to one already held from its source stores that copy's slice:
// an epoch, and each retained epoch, holds one payload per source, not
// γ. Copies that differ (a two-faced source) keep their own bytes. A
// nil slot is an empty one, so an empty payload is stored non-nil.
func (nd *Node) keep(store [][]byte, slot int, payload []byte) {
	base := slot - slot%nd.gamma
	for _, held := range store[base : base+nd.gamma] {
		if held != nil && bytes.Equal(held, payload) {
			payload = held
			break
		}
	}
	if payload == nil {
		payload = []byte{}
	}
	store[slot] = payload
}

// liveOpen counts open epochs against the MaxInflight cap. Stalled
// epochs (all pending pulls exhausted, waiting on a rejoiner's late
// injection) do not hold a pipeline slot — otherwise a dead peer
// would wedge the whole stream instead of just its own rounds — and
// neither do catch-up epochs, which are repair traffic, not live load:
// a rejoiner must resume current rounds immediately, or the survivors
// stall waiting for its new copies while it replays old ones.
func (nd *Node) liveOpen() int {
	live := 0
	for _, st := range nd.open {
		if !st.stalled && !st.catchup {
			live++
		}
	}
	return live
}

// openEpochIDs returns the open set in ascending epoch order, for
// deterministic iteration.
func (nd *Node) openEpochIDs() []uint32 {
	ids := make([]uint32, 0, len(nd.open))
	for e := range nd.open {
		ids = append(ids, e)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// openEpoch creates epoch e's state and registers its expected copies.
// catchup epochs (rejoin recovery) get immediate pull deadlines and
// immediate own-copy injection; live epochs follow the stage schedule
// from effectiveStart = max(scheduled, now).
func (nd *Node) openEpoch(e uint32, now time.Time, catchup bool) {
	start := nd.scheduled(e)
	if start.Before(now) {
		start = now
	}
	st := &epochState{
		epoch:   e,
		started: start,
		planner: newPlanner(nd.n*nd.gamma, maxAttempts, nd.cfg.Retry),
		store:   make([][]byte, nd.n*nd.gamma),
		ledger:  simnet.NewCopyLedger(nd.n),
		catchup: catchup,
	}
	// Injection payload: the ingress batch drained at open (the
	// compaction step; a bounded stream's last epoch closes the
	// ingress, since no later batch would carry what it admits), or the
	// test hook, or — for catch-up rounds, whose original client
	// payloads died with the process — an empty heartbeat batch.
	switch {
	case nd.cfg.Payload != nil:
		st.payload = nd.cfg.Payload(e)
	case catchup:
		st.payload, _ = EncodeBatch(nil)
	default:
		last := nd.cfg.Epochs > 0 && int(e) >= nd.cfg.Epochs-1
		st.payload, _ = EncodeBatch(nd.ingress.drain(last))
	}
	for j := 0; j < nd.gamma; j++ {
		for s := 0; s < nd.n; s++ {
			src := topology.Node(s)
			if src == nd.cfg.Self {
				continue
			}
			var deadline time.Time
			if catchup {
				deadline = now // the round is long past; pull immediately
			} else {
				deadline = st.started.
					Add(time.Duration(nd.stageOf(src, j)) * nd.cfg.StageDur).
					Add(time.Duration(nd.hops(nd.cfg.Self, src, j)) * nd.cfg.HopLatency).
					Add(nd.cfg.Slack)
			}
			st.planner.expect(s*nd.gamma+j, deadline, nd.providers[j])
		}
	}
	nd.open[e] = st
	nd.cfg.Gauges.LiveEpochs(nd.liveOpen())
	if catchup {
		nd.injectThrough(st, nd.cfg.Eta-1)
	}
}

// openDue is the one opener of live epochs: it opens next, then the
// epochs after it in order, while a pipeline slot is free and the
// wall-clock schedule or a signed frame (highest) has reached the epoch.
// Opening in order keeps every epoch of the stream: none is skipped,
// and next never moves back. A node that has not joined has no epoch
// base and opens nothing.
func (nd *Node) openDue(now time.Time) {
	for nd.joined && (nd.cfg.Epochs <= 0 || int(nd.next) < nd.cfg.Epochs) {
		if nd.liveOpen() >= MaxInflight {
			return
		}
		if now.Before(nd.scheduled(nd.next)) && nd.highest < int64(nd.next) {
			return
		}
		nd.openEpoch(nd.next, now, false)
		nd.next++
	}
}

// Run executes the stream until cfg.Epochs rounds have closed (plus
// the drain window for stragglers) or ctx is cancelled. The error is
// non-nil only for transport-level failures or cancellation; per-epoch
// verdicts live in the Result.
//
// Run is the node's only reader of the wall clock: it reads it once per
// wakeup and hands that instant to handle, step, finished and wakeIn.
func (nd *Node) Run(ctx context.Context) (*Result, error) {
	timer := time.NewTimer(time.Millisecond)
	defer timer.Stop()
	var body []byte // the frame that woke the loop, if one did
	for {
		now := time.Now()
		if body != nil {
			nd.handle(body, now)
			body = nil
		}
		nd.step(now)
		if nd.finished(now) {
			return nd.result(), nil
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(nd.wakeIn(now))
		select {
		case <-ctx.Done():
			return nd.result(), ctx.Err()
		case <-timer.C:
		case b, ok := <-nd.cfg.Endpoint.Recv():
			if !ok {
				return nd.result(), fmt.Errorf("stream: endpoint closed under node %d", nd.cfg.Self)
			}
			body = b
		}
	}
}

// finished reports whether a bounded stream is done: every scheduled
// epoch opened and closed, or the drain window after the last
// scheduled round expired with only stalled epochs left.
func (nd *Node) finished(now time.Time) bool {
	if nd.cfg.Epochs <= 0 {
		return false
	}
	if nd.joined && int(nd.next) >= nd.cfg.Epochs && len(nd.open) == 0 {
		return true
	}
	drainBy := nd.scheduled(uint32(nd.cfg.Epochs)).Add(nd.cfg.Drain)
	if now.After(drainBy) {
		for _, e := range nd.openEpochIDs() {
			nd.finalize(nd.open[e], false, now)
		}
		return true
	}
	return false
}

// step runs all timer-driven work due at now.
func (nd *Node) step(now time.Time) {
	if !nd.joined {
		nd.stepJoin(now)
		return
	}
	nd.openDue(now)
	for _, e := range nd.openEpochIDs() {
		st := nd.open[e]
		// Stage injections due by the local schedule.
		if elapsed := now.Sub(st.started); elapsed >= 0 {
			nd.injectThrough(st, int(elapsed/nd.cfg.StageDur))
		}
		// Repair pulls due.
		for _, p := range st.planner.due(now, nd.cfg.Endpoint.PeerDown) {
			nd.sendNak(st.epoch, p)
		}
		if st.planner.done() {
			nd.finalize(st, true, now)
			continue
		}
		if st.planner.terminal() && !st.stalled {
			// Out of pull budget with copies still missing (the
			// provider is probably dead). Release the pipeline slot
			// and wait: a rejoiner's late injection can still revive
			// and complete this round.
			st.stalled = true
			nd.cfg.Gauges.LiveEpochs(nd.liveOpen())
		}
		// Epochs that fell out of the retain horizon can never be
		// revived (peers have dropped their stores); fail them.
		if st.stalled && nd.next > uint32(nd.cfg.Retain) && st.epoch < nd.next-uint32(nd.cfg.Retain) {
			nd.finalize(st, false, now)
		}
	}
}

// stepJoin drives the rejoin handshake: rotate JOIN requests across
// neighbors until any signed frame tells us the current epoch.
func (nd *Node) stepJoin(now time.Time) {
	if now.Before(nd.joinAt) {
		return
	}
	target := nd.neighbors[nd.joinIdx%len(nd.neighbors)]
	nd.joinIdx++
	nd.joinAt = now.Add(nd.joinInterval())
	f := &transport.Frame{Kind: transport.FrameJoin, From: nd.cfg.Self, Source: nd.cfg.Self, HLC: nd.cfg.Clock.Now()}
	nd.cfg.Endpoint.Send(target, f)
	nd.cfg.Gauges.Join()
}

func (nd *Node) joinInterval() time.Duration {
	iv := nd.cfg.Period / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

// adoptEpoch is the rejoin resolution: a signed frame proved the
// stream has reached epoch e. Resume live participation at e+1 and
// open catch-up rounds for the missed epochs inside the retain
// horizon.
func (nd *Node) adoptEpoch(e uint32, now time.Time) {
	nd.joined = true
	first := uint32(0)
	if e+1 > uint32(nd.cfg.Retain) {
		first = e + 1 - uint32(nd.cfg.Retain)
	}
	for miss := first; miss <= e; miss++ {
		if nd.cfg.Epochs > 0 && int(miss) >= nd.cfg.Epochs {
			break
		}
		nd.openEpoch(miss, now, true)
	}
	if nd.next <= e {
		nd.next = e + 1
	}
}

// wakeIn returns how long the event loop may sleep after now.
func (nd *Node) wakeIn(now time.Time) time.Duration {
	const idle = 250 * time.Millisecond
	wake := now.Add(idle)
	if !nd.joined {
		if nd.joinAt.Before(wake) {
			wake = nd.joinAt
		}
	} else {
		if (nd.cfg.Epochs <= 0 || int(nd.next) < nd.cfg.Epochs) && nd.liveOpen() < MaxInflight {
			if t := nd.scheduled(nd.next); t.Before(wake) {
				wake = t
			}
		}
		for _, st := range nd.open {
			if st.injected < nd.cfg.Eta {
				if t := st.started.Add(time.Duration(st.injected) * nd.cfg.StageDur); t.Before(wake) {
					wake = t
				}
			}
			if t, ok := st.planner.nextWake(); ok && t.Before(wake) {
				wake = t
			}
		}
	}
	d := wake.Sub(now)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// injectThrough emits this node's own copies of one epoch for every
// stage up to and including last that it has not injected yet, in
// stage order.
func (nd *Node) injectThrough(st *epochState, last int) {
	for ; st.injected <= last && st.injected < nd.cfg.Eta; st.injected++ {
		nd.injectStage(st, st.injected)
	}
}

// injectStage emits this node's own copies of one epoch scheduled for
// stage stg.
func (nd *Node) injectStage(st *epochState, stg int) {
	for j := 0; j < nd.gamma; j++ {
		if nd.stageOf(nd.cfg.Self, j) != stg {
			continue
		}
		f := &transport.Frame{
			Kind:    transport.FrameData,
			From:    nd.cfg.Self,
			Source:  nd.cfg.Self,
			Epoch:   st.epoch,
			Channel: uint8(j),
			Stage:   uint8(stg),
			Payload: st.payload,
		}
		if err := transport.SignFrame(nd.cfg.Keyring, f); err != nil {
			continue
		}
		if slot := nd.slot(nd.cfg.Self, uint8(j)); st.store[slot] == nil {
			nd.keep(st.store, slot, st.payload)
		}
		nd.forward(f)
	}
}

// forward relays copy f to this node's successor on f's cycle, unless
// the successor is the copy's source: a copy stops after N−1 hops, one
// short of closing its cycle.
func (nd *Node) forward(f *transport.Frame) {
	j := int(f.Channel)
	if nd.succ[j] == f.Source {
		return
	}
	out := *f
	out.From = nd.cfg.Self
	out.Hop = uint16(nd.hops(nd.cfg.Self, f.Source, j))
	out.HLC = nd.cfg.Clock.Now()
	nd.cfg.Endpoint.Send(nd.succ[j], &out)
}

// receive decodes and verifies one inbound body, the step Run's
// handler and Serve share. A frame that fails either is dropped before
// it touches any state. Only a signed frame moves the clock: NAK, MISS
// and JOIN carry no MAC, so their stamps could say anything.
func (nd *Node) receive(body []byte) (*transport.Frame, bool) {
	f, err := transport.DecodeFrame(body)
	if err != nil {
		return nil, false
	}
	if ok, err := transport.VerifyFrame(nd.cfg.Keyring, f); err != nil || !ok {
		return nil, false // bad MAC == drop-equivalent corruption: not even the clock learns from it
	}
	if f.Kind.Signed() {
		nd.cfg.Clock.Update(f.HLC)
	}
	return f, true
}

// plausible reports whether epoch e can have started by now: e is at
// most one past the epoch the schedule has reached, ⌊(now − Epoch0) /
// Period⌋, or 0 before Epoch0. Any source can sign any epoch, so a later
// one teaches the node nothing. The bound comes from now, since
// scheduled(e) overflows for a large e.
func (nd *Node) plausible(e uint32, now time.Time) bool {
	reached := int64(0)
	if d := now.Sub(nd.cfg.Epoch0); d > 0 {
		reached = int64(d / nd.cfg.Period)
	}
	return int64(e) <= reached+1
}

// handle processes one raw inbound frame body that arrived at now.
func (nd *Node) handle(body []byte, now time.Time) {
	f, ok := nd.receive(body)
	if !ok {
		return
	}
	// Epoch learning: every signed frame carries an authenticated
	// epoch. JOIN/NAK/MISS are unsigned and must not fast-forward us,
	// and neither may a signed epoch the schedule cannot have reached.
	if f.Kind.Signed() && nd.plausible(f.Epoch, now) {
		nd.highest = max(nd.highest, int64(f.Epoch))
		if !nd.joined {
			nd.adoptEpoch(f.Epoch, now)
		}
	}
	switch f.Kind {
	case transport.FrameData, transport.FrameRepair:
		nd.acceptCopy(f, now)
	case transport.FrameNak:
		nd.serveNak(f)
	case transport.FrameMiss:
		if st, ok := nd.open[f.Epoch]; ok {
			if slot := nd.slot(f.Source, f.Channel); slot >= 0 {
				st.planner.miss(slot, now)
			}
		}
	case transport.FrameJoin:
		nd.serveJoin(f)
	case transport.FrameEpoch:
		// Learning already happened above; nothing else to do.
	}
}

// acceptCopy ingests a DATA or REPAIR frame for its epoch. DATA is
// accepted only from the node's predecessor on the copy's cycle, the
// one node the schedule relays it from; a REPAIR answers this node's
// own pull and may come from any neighbor. Either is relayed on from
// this node's own position.
func (nd *Node) acceptCopy(f *transport.Frame, now time.Time) {
	slot := nd.slot(f.Source, f.Channel)
	if slot < 0 || f.Source == nd.cfg.Self {
		return
	}
	if f.Kind == transport.FrameData && f.From != nd.pred[f.Channel] {
		return
	}
	st, isOpen := nd.open[f.Epoch]
	if !isOpen {
		// The signed frame may have raised highest: let the opener
		// catch up, in order and under the pipeline cap. A copy whose
		// epoch is still not open (closed, before our join horizon, or
		// past the cap) is dropped; the schedule or a pull brings back
		// what this node still owes.
		nd.openDue(now)
		if st, isOpen = nd.open[f.Epoch]; !isOpen {
			return
		}
	}
	// A frame from stage k of this epoch proves the cluster reached
	// stage k: start our own ≤k injections now.
	nd.injectThrough(st, int(f.Stage))
	if st.store[slot] != nil {
		return
	}
	nd.keep(st.store, slot, f.Payload)
	st.ledger.Add(nd.cfg.Self, f.Source)
	if first := st.planner.got(slot); first && f.Kind == transport.FrameRepair {
		st.repaired++
		nd.cfg.Gauges.Repaired()
	}
	nd.forward(f)
	if st.planner.done() {
		nd.finalize(st, true, now)
	}
}

// serveNak answers a pull against the epoch's store — open or
// retained — with a REPAIR, or a MISS if we do not hold the copy. A
// NAK from a non-neighbor is dropped: nothing can be sent to it. So is
// one from the copy's own source, before signing: no honest node pulls
// its own message, and the source drops any copy of it on arrival.
func (nd *Node) serveNak(f *transport.Frame) {
	requester := f.From
	if requester == f.Source || !nd.cfg.IHC.Graph().HasEdge(nd.cfg.Self, requester) {
		return
	}
	var payload []byte
	if slot := nd.slot(f.Source, f.Channel); slot >= 0 {
		if st, ok := nd.open[f.Epoch]; ok {
			payload = st.store[slot]
		} else if store, ok := nd.retained[f.Epoch]; ok {
			payload = store[slot]
		}
	}
	if payload == nil {
		miss := &transport.Frame{
			Kind: transport.FrameMiss, From: nd.cfg.Self,
			Source: f.Source, Epoch: f.Epoch, Channel: f.Channel, HLC: nd.cfg.Clock.Now(),
		}
		nd.cfg.Endpoint.Send(requester, miss)
		return
	}
	rep := &transport.Frame{
		Kind:    transport.FrameRepair,
		From:    nd.cfg.Self,
		Source:  f.Source,
		Epoch:   f.Epoch,
		Channel: f.Channel,
		Stage:   uint8(nd.stageOf(f.Source, int(f.Channel))),
		Hop:     uint16(nd.hops(requester, f.Source, int(f.Channel)) - 1),
		HLC:     nd.cfg.Clock.Now(),
		Payload: payload,
	}
	if err := transport.SignFrame(nd.cfg.Keyring, rep); err != nil {
		return
	}
	nd.cfg.Endpoint.Send(requester, rep)
}

// serveJoin answers a rejoiner's epoch query with a signed EPOCH
// response carrying the highest round we know of. A JOIN from a
// non-neighbor is dropped before signing: nothing can be sent to it.
func (nd *Node) serveJoin(f *transport.Frame) {
	if !nd.cfg.IHC.Graph().HasEdge(nd.cfg.Self, f.From) {
		return
	}
	if !nd.joined || nd.next == 0 {
		return // we do not know the epoch either
	}
	rep := &transport.Frame{
		Kind:   transport.FrameEpoch,
		From:   nd.cfg.Self,
		Source: nd.cfg.Self,
		Epoch:  uint32(max(int64(nd.next)-1, nd.highest)),
		HLC:    nd.cfg.Clock.Now(),
	}
	if err := transport.SignFrame(nd.cfg.Keyring, rep); err != nil {
		return
	}
	nd.cfg.Endpoint.Send(f.From, rep)
}

// sendNak emits one planned pull for one epoch.
func (nd *Node) sendNak(epoch uint32, p pull) {
	nd.naksSent++
	nd.cfg.Gauges.Nak()
	f := &transport.Frame{
		Kind:    transport.FrameNak,
		From:    nd.cfg.Self,
		Source:  topology.Node(p.slot / nd.gamma),
		Epoch:   epoch,
		Channel: uint8(p.slot % nd.gamma),
		HLC:     nd.cfg.Clock.Now(),
	}
	nd.cfg.Endpoint.Send(p.provider, f)
}

// finalize closes one epoch: inject any own stage still pending,
// record the verdict, retain the store for late pulls, release the
// pipeline slot, GC stores beyond the retain horizon.
func (nd *Node) finalize(st *epochState, completed bool, now time.Time) {
	// Every copy this node expects can arrive before its own later
	// stages start (large η); its peers still need those copies.
	nd.injectThrough(st, nd.cfg.Eta-1)
	delete(nd.open, st.epoch)
	nd.cfg.Gauges.LiveEpochs(nd.liveOpen())
	res := EpochResult{
		Epoch:     st.epoch,
		Node:      nd.cfg.Self,
		Completed: completed,
		CatchUp:   st.catchup,
		LedgerErr: st.ledger.VerifyReceiver(nd.cfg.Self, nd.gamma),
		Repaired:  st.repaired,
		Copies:    make(map[topology.Node][]uint8),
	}
	if completed && !st.catchup {
		res.Latency = now.Sub(nd.scheduled(st.epoch))
	}
	for i, p := range st.store {
		if s := topology.Node(i / nd.gamma); p != nil && s != nd.cfg.Self {
			res.Copies[s] = append(res.Copies[s], uint8(i%nd.gamma))
		}
	}
	items, size := 0, 0
	for s := 0; s < nd.n; s++ {
		// Count each source's batch once (its channel-0 copy), not γ times.
		payload := st.store[s*nd.gamma]
		if topology.Node(s) == nd.cfg.Self || payload == nil {
			continue
		}
		if n, sz, err := batchCount(payload); err == nil {
			items += n
			size += sz
		} else if len(payload) > 0 {
			items++
			size += len(payload)
		}
	}
	res.Items = items
	if nd.cfg.CollectPayloads {
		res.Payloads = st.store
	}
	nd.results = append(nd.results, res)
	if completed {
		nd.cfg.Gauges.Delivered(items, size)
	}
	lat := res.Latency
	if st.catchup || !completed {
		lat = -1
	}
	nd.cfg.Gauges.EpochClosed(completed, lat)
	if st.catchup && completed {
		nd.cfg.Gauges.CaughtUp()
	}
	nd.retained[st.epoch] = st.store
	if nd.next > uint32(nd.cfg.Retain) {
		min := nd.next - uint32(nd.cfg.Retain)
		for e := range nd.retained {
			if e < min {
				delete(nd.retained, e)
			}
		}
	}
}

// Serve keeps answering pulls and JOIN queries from the retained
// stores after Run returns — a node that finished its own epochs may
// be a straggler's only provider, and a rejoiner may still need the
// epoch handshake. Call it after Run; it exits when ctx is cancelled
// or the endpoint closes.
func (nd *Node) Serve(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case body, ok := <-nd.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			f, ok := nd.receive(body)
			if !ok {
				continue
			}
			switch f.Kind {
			case transport.FrameNak:
				nd.serveNak(f)
			case transport.FrameJoin:
				nd.serveJoin(f)
			}
		}
	}
}

func (nd *Node) result() *Result {
	sort.Slice(nd.results, func(i, j int) bool { return nd.results[i].Epoch < nd.results[j].Epoch })
	return &Result{
		Self:     nd.cfg.Self,
		Epochs:   nd.results,
		NaksSent: nd.naksSent,
		Stats:    nd.cfg.Endpoint.Stats(),
	}
}
