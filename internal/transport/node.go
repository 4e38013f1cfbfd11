package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ihc/internal/core"
	"ihc/internal/hlc"
	"ihc/internal/reliable"
	"ihc/internal/repair"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// NodeConfig shapes one protocol node: the IHC schedule it executes,
// the endpoint it speaks through, and the wall-clock timing that
// replaces the simulator's tick axis.
type NodeConfig struct {
	IHC  *core.IHC
	Eta  int
	Self topology.Node
	// Endpoint is the node's mesh attachment (loopback or TCP).
	Endpoint Endpoint
	// Keyring signs this node's injections and verifies every copy
	// accepted from the wire.
	Keyring *reliable.Keyring
	// Epoch is the cluster-agreed wall-clock start of stage 0; all
	// deadline arithmetic is anchored here.
	Epoch time.Time
	// StageDur is the wall-clock length of one schedule stage.
	StageDur time.Duration
	// HopLatency is the expected per-hop relay time, used only for
	// deadline computation (stage start + hops·HopLatency + slack).
	HopLatency time.Duration
	// Slack pads every deadline against scheduling noise before the
	// first NAK fires. Default StageDur.
	Slack time.Duration
	// Retry shapes the jittered backoff between pull rounds and
	// MaxAttempts bounds NAKs per missing copy.
	Retry       BackoffConfig
	MaxAttempts int
	// Clock is the node's hybrid logical clock; a fresh one is made
	// if nil.
	Clock *hlc.Clock
}

// NodeResult is a node's final verdict after Run returns.
type NodeResult struct {
	Self      topology.Node
	Ledger    *simnet.CopyLedger // only row Self is populated
	LedgerErr error              // VerifyReceiver(Self, γ) verdict
	Repaired  int                // copies that arrived via REPAIR, not the schedule
	NaksSent  int
	Exhausted []repair.Want // copies never recovered (fatal)
	Stats     EndpointStats
	// Copies[s] lists, per source, the channels a copy arrived on —
	// the node's delivery multiset, comparable against a simnet
	// CopyMatrix row.
	Copies map[topology.Node][]uint8
}

// Node executes the IHC broadcast schedule on a live Endpoint: it
// injects its own message on every directed cycle at its assigned
// stage, store-and-forward relays other nodes' copies along their
// cycle routes, dedups before counting (so retries and chaos
// duplicates can never over-count the ledger), and pulls missing
// copies from graph neighbors when closed-form deadlines pass.
//
// Stage starts are wall-clock timers corrected by the hybrid logical
// clock: every frame carries the sender's HLC, every receipt merges it,
// and a frame stamped with a later stage fast-forwards this node's own
// pending injections — the paper's "loosely synchronized stage starts"
// made operational on hosts whose physical clocks drift.
type Node struct {
	cfg     NodeConfig
	clock   *hlc.Clock
	planner *repair.Planner
	ledger  *simnet.CopyLedger

	n, gamma int

	// routes[j] is directed cycle j rotated to start at each packet's
	// source on demand; cycleOf[j] caches the cycle node sequence.
	cycleOf [][]topology.Node

	store    map[repair.Want][]byte // accepted payloads, incl. our own
	copies   map[topology.Node][]uint8
	injected []bool // per stage
	repaired int
	naksSent int

	doneCh   chan struct{}
	doneOnce sync.Once
}

// NewNode validates the configuration and prepares the node's schedule
// state. Run starts the event loop.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.IHC == nil || cfg.Endpoint == nil || cfg.Keyring == nil {
		return nil, fmt.Errorf("transport: node needs IHC, Endpoint, and Keyring")
	}
	if cfg.Eta < 1 || cfg.Eta > cfg.IHC.N() {
		return nil, fmt.Errorf("transport: eta %d outside [1,%d]", cfg.Eta, cfg.IHC.N())
	}
	if cfg.StageDur <= 0 {
		return nil, fmt.Errorf("transport: StageDur must be positive")
	}
	if cfg.Slack <= 0 {
		cfg.Slack = cfg.StageDur
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 12
	}
	if cfg.Clock == nil {
		cfg.Clock = hlc.New()
	}
	n := &Node{
		cfg:      cfg,
		clock:    cfg.Clock,
		ledger:   simnet.NewCopyLedger(cfg.IHC.N()),
		n:        cfg.IHC.N(),
		gamma:    cfg.IHC.Gamma(),
		store:    make(map[repair.Want][]byte),
		copies:   make(map[topology.Node][]uint8),
		injected: make([]bool, cfg.Eta),
		doneCh:   make(chan struct{}),
	}
	for j := 0; j < n.gamma; j++ {
		n.cycleOf = append(n.cycleOf, []topology.Node(cfg.IHC.DirectedCycle(j)))
	}
	backoff := NewBackoff(cfg.Retry)
	n.planner = repair.NewPlanner(repair.PullConfig{
		MaxAttempts: cfg.MaxAttempts,
		Delay:       func(int) time.Duration { return backoff.Next() },
	})
	n.expectAll()
	return n, nil
}

// routeOf returns the relay chain of copy (s, j): the N nodes of
// directed cycle j starting at s. The last node is the (N-1)-th
// receiver; the slice is freshly allocated (frames own their routes).
func (nd *Node) routeOf(s topology.Node, j int) []topology.Node {
	c := nd.cycleOf[j]
	p := nd.cfg.IHC.ID(j, s)
	route := make([]topology.Node, nd.n)
	for k := 0; k < nd.n; k++ {
		route[k] = c[(p+k)%nd.n]
	}
	return route
}

// stageOf returns the schedule stage copy (s, j) is injected in.
func (nd *Node) stageOf(s topology.Node, j int) int {
	return nd.cfg.IHC.ID(j, s) % nd.cfg.Eta
}

// expectAll registers every copy this node is owed with its closed-form
// deadline and provider rotation: the cycle-j predecessor (our upstream
// relay on that copy's route) first, then the remaining graph neighbors.
func (nd *Node) expectAll() {
	neighbors := nd.cfg.IHC.Graph().Neighbors(nd.cfg.Self)
	for j := 0; j < nd.gamma; j++ {
		c := nd.cycleOf[j]
		myPos := nd.cfg.IHC.ID(j, nd.cfg.Self)
		pred := c[(myPos+nd.n-1)%nd.n]
		providers := []topology.Node{pred}
		for _, nb := range neighbors {
			if nb != pred {
				providers = append(providers, nb)
			}
		}
		for s := 0; s < nd.n; s++ {
			src := topology.Node(s)
			if src == nd.cfg.Self {
				continue
			}
			hops := (myPos - nd.cfg.IHC.ID(j, src) + nd.n) % nd.n
			deadline := nd.cfg.Epoch.
				Add(time.Duration(nd.stageOf(src, j)) * nd.cfg.StageDur).
				Add(time.Duration(hops) * nd.cfg.HopLatency).
				Add(nd.cfg.Slack)
			nd.planner.Expect(repair.Want{Source: src, Channel: uint8(j)}, deadline, providers)
		}
	}
}

// Run executes the node until every expected copy arrived (it keeps
// serving repair pulls afterwards), the repair budget is exhausted, or
// ctx is cancelled. It always returns the node's result; the error is
// non-nil only for transport-level failures, not missing copies —
// those are the result's LedgerErr/Exhausted verdict.
func (nd *Node) Run(ctx context.Context) (*NodeResult, error) {
	timer := time.NewTimer(nd.wakeIn())
	defer timer.Stop()
	for {
		nd.step(time.Now())
		if nd.planner.Terminal() {
			// Whether complete or out of repair budget, make sure our
			// own copies are all injected before leaving the loop —
			// peers may still be pulling them (Serve answers those).
			for st := 0; st < nd.cfg.Eta; st++ {
				if !nd.injected[st] {
					nd.injectStage(st)
				}
			}
			nd.doneOnce.Do(func() { close(nd.doneCh) })
			return nd.result(), nil
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(nd.wakeIn())
		select {
		case <-ctx.Done():
			return nd.result(), ctx.Err()
		case <-timer.C:
		case body, ok := <-nd.cfg.Endpoint.Recv():
			if !ok {
				return nd.result(), fmt.Errorf("transport: endpoint closed under node %d", nd.cfg.Self)
			}
			nd.handle(body)
		}
	}
}

// Serve keeps answering repair pulls after Run returned, until ctx is
// cancelled — a finished node is often another node's only surviving
// provider.
func (nd *Node) Serve(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case body, ok := <-nd.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			nd.handle(body)
		}
	}
}

// Done is closed once every expected copy has arrived.
func (nd *Node) Done() <-chan struct{} { return nd.doneCh }

// step runs the timer-driven work due at now: stage injections whose
// wall-clock start has passed, then repair pulls whose deadlines have.
func (nd *Node) step(now time.Time) {
	elapsed := now.Sub(nd.cfg.Epoch)
	for st := 0; st < nd.cfg.Eta; st++ {
		if !nd.injected[st] && elapsed >= time.Duration(st)*nd.cfg.StageDur {
			nd.injectStage(st)
		}
	}
	for _, pull := range nd.planner.Due(now, nd.cfg.Endpoint.PeerDown) {
		nd.sendNak(pull)
	}
}

// wakeIn returns how long the event loop may sleep: until the next
// uninjected stage start or the planner's next deadline, whichever is
// sooner.
func (nd *Node) wakeIn() time.Duration {
	const idle = 250 * time.Millisecond
	wake := time.Now().Add(idle)
	for st := 0; st < nd.cfg.Eta; st++ {
		if !nd.injected[st] {
			if t := nd.cfg.Epoch.Add(time.Duration(st) * nd.cfg.StageDur); t.Before(wake) {
				wake = t
			}
			break
		}
	}
	if t, ok := nd.planner.NextWake(); ok && t.Before(wake) {
		wake = t
	}
	d := time.Until(wake)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// injectStage emits this node's own copies scheduled for stage st: on
// every directed cycle j where ID_j(self) ≡ st (mod η), sign the
// payload, store it (we are the root provider for pulls), and send the
// first hop.
func (nd *Node) injectStage(st int) {
	nd.injected[st] = true
	for j := 0; j < nd.gamma; j++ {
		if nd.stageOf(nd.cfg.Self, j) != st {
			continue
		}
		w := repair.Want{Source: nd.cfg.Self, Channel: uint8(j)}
		payload := reliable.TruthPayload(nd.cfg.Self)
		f := &Frame{
			Kind:    FrameData,
			From:    nd.cfg.Self,
			Source:  nd.cfg.Self,
			Channel: uint8(j),
			Stage:   uint8(st),
			Hop:     0,
			Route:   nd.routeOf(nd.cfg.Self, j),
			Payload: payload,
		}
		if err := SignFrame(nd.cfg.Keyring, f); err != nil {
			continue // unsignable own frame: config error, surfaces as peers' exhausted pulls
		}
		if _, dup := nd.store[w]; !dup {
			nd.store[w] = payload
		}
		nd.forward(f, 0)
	}
}

// forward sends f's next hop: Route[holder+1], if any remains.
func (nd *Node) forward(f *Frame, holder int) {
	if holder+1 >= len(f.Route) {
		return
	}
	next := f.Route[holder+1]
	out := *f
	out.From = nd.cfg.Self
	out.Hop = uint16(holder)
	out.HLC = nd.clock.Now()
	nd.cfg.Endpoint.Send(next, &out) // best-effort; losses are repair's job
}

// handle processes one raw inbound frame body.
func (nd *Node) handle(body []byte) {
	f, err := DecodeFrame(body)
	if err != nil {
		return // corrupt frame: drop; repair recovers the copy
	}
	ok, err := VerifyFrame(nd.cfg.Keyring, f)
	if err != nil || !ok {
		return // bad MAC == drop-equivalent corruption, clock included
	}
	nd.clock.Update(f.HLC)
	switch f.Kind {
	case FrameData, FrameRepair:
		nd.acceptCopy(f)
	case FrameNak:
		nd.serveNak(f)
	case FrameMiss:
		nd.planner.Miss(repair.Want{Source: f.Source, Channel: f.Channel}, time.Now())
	}
}

// acceptCopy ingests a DATA or REPAIR frame: fast-forward stage starts,
// dedup, store, count, relay.
func (nd *Node) acceptCopy(f *Frame) {
	// A frame from stage k proves the cluster has reached stage k:
	// start our own ≤k injections now instead of waiting out local
	// wall-clock drift.
	for st := 0; st <= int(f.Stage) && st < nd.cfg.Eta; st++ {
		if !nd.injected[st] {
			nd.injectStage(st)
		}
	}
	if int(f.Channel) >= nd.gamma || f.Source == nd.cfg.Self {
		return
	}
	w := repair.Want{Source: f.Source, Channel: f.Channel}
	if _, dup := nd.store[w]; dup {
		return // duplicate (chaos dup, retry overlap): never re-counted, never re-relayed
	}
	nd.store[w] = f.Payload
	nd.ledger.Add(nd.cfg.Self, f.Source)
	nd.copies[f.Source] = append(nd.copies[f.Source], f.Channel)
	if first := nd.planner.Got(w); first && f.Kind == FrameRepair {
		nd.repaired++
	}
	// Relay along the remaining route. A REPAIR resumes the original
	// chain too: the provider set Hop so we sit at Route[Hop+1], and
	// everyone downstream of us lost the copy with us.
	holder := int(f.Hop) + 1
	if holder < len(f.Route) && f.Route[holder] == nd.cfg.Self {
		nd.forward(f, holder)
	}
}

// serveNak answers a pull: REPAIR with the stored copy (resuming the
// relay chain at the requester's route position), or MISS so the
// requester rotates without burning its full timeout.
func (nd *Node) serveNak(f *Frame) {
	w := repair.Want{Source: f.Source, Channel: f.Channel}
	requester := f.From
	payload, held := nd.store[w]
	if !held {
		miss := &Frame{Kind: FrameMiss, From: nd.cfg.Self, Source: f.Source, Channel: f.Channel, HLC: nd.clock.Now()}
		nd.cfg.Endpoint.Send(requester, miss)
		return
	}
	route := nd.routeOf(w.Source, int(w.Channel))
	hop := 0
	for i, v := range route {
		if v == requester {
			hop = i - 1
			break
		}
	}
	rep := &Frame{
		Kind:    FrameRepair,
		From:    nd.cfg.Self,
		Source:  w.Source,
		Channel: w.Channel,
		Stage:   uint8(nd.stageOf(w.Source, int(w.Channel))),
		Hop:     uint16(hop),
		HLC:     nd.clock.Now(),
		Route:   route,
		Payload: payload,
	}
	if err := SignFrame(nd.cfg.Keyring, rep); err != nil {
		return
	}
	nd.cfg.Endpoint.Send(requester, rep)
}

// sendNak emits one planned pull.
func (nd *Node) sendNak(p repair.Pull) {
	nd.naksSent++
	f := &Frame{
		Kind:    FrameNak,
		From:    nd.cfg.Self,
		Source:  p.Source,
		Channel: p.Channel,
		HLC:     nd.clock.Now(),
	}
	nd.cfg.Endpoint.Send(p.Provider, f)
}

func (nd *Node) result() *NodeResult {
	res := &NodeResult{
		Self:      nd.cfg.Self,
		Ledger:    nd.ledger,
		LedgerErr: nd.ledger.VerifyReceiver(nd.cfg.Self, nd.gamma),
		Repaired:  nd.repaired,
		NaksSent:  nd.naksSent,
		Exhausted: nd.planner.Exhausted(),
		Stats:     nd.cfg.Endpoint.Stats(),
		Copies:    nd.copies,
	}
	return res
}
