// Package chaos attacks the real transport the way internal/fault
// attacks the simulator: a seeded plan of link misbehaviour — drop,
// delay, duplicate, corrupt, partition — applied to every frame
// crossing every directed link, either as a frame filter on the
// in-process loopback mesh or as a real socket-level TCP proxy
// interposed per link of a live cluster (proxy.go).
//
// The plan is the fault.TemporalPlan the simulation campaigns use,
// compiled by the same fault.Injector the engine runs: a frame at wall
// offset d from the plan's epoch reads the Injector's link verdict at
// tick ⌊d / TickDur⌋, so a placement the campaign found interesting can
// be replayed against real sockets unchanged. On top of the windows,
// seeded per-frame background rates (splitmix64 of link × frame-index,
// same mixer the engine uses for background traffic) exercise the retry
// machinery continuously.
//
// Every chaos outcome is drop-equivalent to the protocol: corrupted
// frames fail their HMAC and are discarded, duplicates are deduped
// before the ledger, delays are bounded — so the γ-copy postcondition
// must survive all of them, which is exactly what the harness asserts.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"ihc/internal/fault"
	"ihc/internal/simnet"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// Config shapes a chaos plan.
type Config struct {
	Graph *topology.Graph
	// Plan supplies link-fault windows on the simulated-tick axis:
	// Corrupt windows corrupt frames in flight, non-Corrupt windows
	// partition the link (drop everything, sever connections). No node
	// entry touches a frame: Crashes lists the crash entries for the
	// harness or launcher to execute, and other kinds are ignored.
	Plan *fault.TemporalPlan
	// TickDur maps the plan's tick axis to wall time. Default 1ms.
	TickDur time.Duration
	// Seed drives the per-frame background coins.
	Seed int64
	// Background per-frame misbehaviour rates in [0,1], applied to
	// every link all the time (independent of Plan windows).
	DropRate    float64
	DupRate     float64
	CorruptRate float64
	DelayRate   float64
	// MaxDelay bounds a delayed frame's extra latency. Default 5ms.
	MaxDelay time.Duration
	// Epoch anchors the wall-clock side of the tick mapping; defaults
	// to plan creation time. The harness sets it to the cluster's
	// agreed start.
	Epoch time.Time
}

// Plan is a compiled chaos plan. It implements transport.LinkFilter for
// the loopback mesh; proxies consult the same verdicts for TCP. Safe
// for concurrent use.
type Plan struct {
	cfg Config
	inj *fault.Injector // cfg.Plan compiled against cfg.Graph

	mu       sync.Mutex
	frameSeq map[[2]topology.Node]uint64
}

// splitmix64 is the same full-avalanche mixer the engine seeds
// background traffic with.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPlan validates and compiles cfg.
func NewPlan(cfg Config) (*Plan, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("chaos: plan requires a graph")
	}
	for _, r := range []float64{cfg.DropRate, cfg.DupRate, cfg.CorruptRate, cfg.DelayRate} {
		if !(r >= 0 && r <= 1) { // NaN fails both
			return nil, fmt.Errorf("chaos: rate %v outside [0,1]", r)
		}
	}
	if cfg.TickDur <= 0 {
		cfg.TickDur = time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Now()
	}
	inj, err := cfg.Plan.Compile(cfg.Graph)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: cfg, inj: inj, frameSeq: make(map[[2]topology.Node]uint64)}, nil
}

// Epoch returns the wall-clock anchor of the plan's tick axis.
func (p *Plan) Epoch() time.Time { return p.cfg.Epoch }

// link is the plan's verdict on the directed link from→to at wall
// offset now: the compiled Injector's link verdict at tick
// ⌊now / TickDur⌋. An offset before the epoch is fault-free.
func (p *Plan) link(from, to topology.Node, now time.Duration) simnet.FaultAction {
	if now < 0 {
		return simnet.FaultNone
	}
	return p.inj.Link(from, to, simnet.Time(now/p.cfg.TickDur))
}

// Partitioned reports whether the directed link from→to is inside a
// (non-corrupt) outage window at wall offset now.
func (p *Plan) Partitioned(from, to topology.Node, now time.Duration) bool {
	return p.link(from, to, now) == simnet.FaultDrop
}

// coin returns the k-th seeded uniform in [0,1) for this link's next
// frame index.
func (p *Plan) coins(from, to topology.Node) (drop, dup, corrupt, delay float64) {
	key := [2]topology.Node{from, to}
	p.mu.Lock()
	seq := p.frameSeq[key]
	p.frameSeq[key] = seq + 1
	p.mu.Unlock()
	base := splitmix64(uint64(p.cfg.Seed)) ^ splitmix64(uint64(from)<<32|uint64(uint32(to)))
	u := func(k uint64) float64 {
		return float64(splitmix64(base^(seq<<3|k))>>11) / float64(1<<53)
	}
	return u(0), u(1), u(2), u(3)
}

// Filter renders the chaos verdict for one frame on one directed link —
// the transport.LinkFilter implementation the loopback mesh calls, and
// the proxy's per-frame decision procedure.
func (p *Plan) Filter(from, to topology.Node, now time.Duration) transport.FilterAction {
	var act transport.FilterAction
	switch p.link(from, to, now) {
	case simnet.FaultDrop:
		act.Drop = true
		return act
	case simnet.FaultCorrupt:
		act.Corrupt = true
	}
	cDrop, cDup, cCorrupt, cDelay := p.coins(from, to)
	if cDrop < p.cfg.DropRate {
		act.Drop = true
		return act
	}
	if cDup < p.cfg.DupRate {
		act.Duplicate = true
	}
	if cCorrupt < p.cfg.CorruptRate {
		act.Corrupt = true
	}
	if cDelay < p.cfg.DelayRate {
		act.Delay = time.Duration(float64(p.cfg.MaxDelay) * cDelay / p.cfg.DelayRate)
	}
	return act
}

// Crashes lists the plan's node-crash events as (node, wall offset)
// pairs for the harness or launcher to execute.
func (p *Plan) Crashes() map[topology.Node]time.Duration {
	out := make(map[topology.Node]time.Duration)
	if p.cfg.Plan == nil {
		return out
	}
	for _, nf := range p.cfg.Plan.Nodes {
		if nf.Kind == fault.Crash {
			out[nf.Node] = time.Duration(nf.At) * p.cfg.TickDur
		}
	}
	return out
}
