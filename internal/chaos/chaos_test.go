package chaos

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"ihc/internal/fault"
	"ihc/internal/simnet"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// q2 is the 4-cycle 0-1-3-2-0.
var q2 = topology.MustHypercube(2)

func mustPlan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	cfg.Graph = q2
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFilterPureOfArcAndFrameIndex: an arc's k-th verdict depends only
// on the seed, the arc and k — not on how much traffic other arcs
// carried in between — and a different seed draws different verdicts.
func TestFilterPureOfArcAndFrameIndex(t *testing.T) {
	cfg := Config{Seed: 5, DropRate: 0.3, DupRate: 0.3, CorruptRate: 0.3, DelayRate: 0.3}
	verdicts := func(p *Plan, others int) []transport.FilterAction {
		var out []transport.FilterAction
		for k := 0; k < 200; k++ {
			for i := 0; i < others*(k%3); i++ {
				p.Filter(1, 0, 0)
				p.Filter(2, 3, 0)
			}
			out = append(out, p.Filter(0, 1, 0))
		}
		return out
	}
	alone := verdicts(mustPlan(t, cfg), 0)
	busy := verdicts(mustPlan(t, cfg), 5)
	for k := range alone {
		if alone[k] != busy[k] {
			t.Fatalf("frame %d on 0->1: %+v alone, %+v beside other arcs' traffic", k, alone[k], busy[k])
		}
	}
	cfg.Seed = 6
	other := verdicts(mustPlan(t, cfg), 0)
	same := 0
	for k := range alone {
		if alone[k] == other[k] {
			same++
		}
	}
	if same == len(alone) {
		t.Fatal("seeds 5 and 6 drew the same 200 verdicts")
	}
	// The reverse arc draws its own sequence.
	p := mustPlan(t, Config{Seed: 5, DropRate: 0.3, DupRate: 0.3, CorruptRate: 0.3, DelayRate: 0.3})
	rev := 0
	for k := range alone {
		if p.Filter(1, 0, 0) == alone[k] {
			rev++
		}
	}
	if rev == len(alone) {
		t.Fatal("arcs 0->1 and 1->0 drew the same 200 verdicts")
	}
}

// TestWindowsHalfOpenOnBothArcs: a partition window [From, Until)
// drops every frame on both arcs of its link from From up to, not
// including, Until; a corrupt window corrupts them instead, and
// neither touches other links.
func TestWindowsHalfOpenOnBothArcs(t *testing.T) {
	const tick = 10 * time.Millisecond
	p := mustPlan(t, Config{TickDur: tick, Plan: &fault.TemporalPlan{Links: []fault.LinkFault{
		{U: 0, V: 1, From: 3, Until: 7},
		{U: 2, V: 3, From: 3, Until: 7, Corrupt: true},
	}}})
	for _, c := range []struct {
		at     time.Duration
		inside bool
	}{
		{0, false}, {3*tick - 1, false}, {3 * tick, true}, {7*tick - 1, true}, {7 * tick, false}, {time.Hour, false},
	} {
		for _, arc := range [][2]topology.Node{{0, 1}, {1, 0}} {
			act := p.Filter(arc[0], arc[1], c.at)
			if got := p.Partitioned(arc[0], arc[1], c.at); got != c.inside || act.Drop != c.inside {
				t.Errorf("%d->%d at %s: partitioned %v, drop %v; want %v", arc[0], arc[1], c.at, got, act.Drop, c.inside)
			}
		}
		for _, arc := range [][2]topology.Node{{2, 3}, {3, 2}} {
			act := p.Filter(arc[0], arc[1], c.at)
			if act.Corrupt != c.inside || act.Drop || p.Partitioned(arc[0], arc[1], c.at) {
				t.Errorf("%d->%d at %s: %+v, want corrupt %v and no drop", arc[0], arc[1], c.at, act, c.inside)
			}
		}
		if act := p.Filter(0, 2, c.at); act != (transport.FilterAction{}) {
			t.Errorf("0->2 at %s: %+v, want no fault on a link outside the plan", c.at, act)
		}
	}
}

// TestChaosMatchesInjector: the wall-clock chaos layer and the engine
// give one link verdict. Over 200 seeded random plans on Q4 — node
// faults of every kind at any time, and up to six link windows, broken
// or corrupting, a third of them Forever, often on a link already
// listed (so windows overlap), in either orientation — with every
// background rate 0, Filter's Drop and Corrupt and Partitioned at a
// wall offset equal the compiled Injector's verdict at tick
// ⌊offset / TickDur⌋, on every arc and at offsets on every window edge;
// every offset before the plan's epoch is fault-free. The engine's
// verdict is Relay at hop 0, where no node fault acts.
func TestChaosMatchesInjector(t *testing.T) {
	g := topology.MustHypercube(4)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(29))
	seen := map[simnet.FaultAction]int{}
	for trial := 0; trial < 200; trial++ {
		tp := &fault.TemporalPlan{Seed: rng.Int63()}
		for _, v := range rng.Perm(g.N())[:rng.Intn(3)] {
			tp.Nodes = append(tp.Nodes, fault.NodeFault{Node: topology.Node(v), Kind: fault.Kind(1 + rng.Intn(3)), At: simnet.Time(rng.Intn(40))})
		}
		for i := rng.Intn(7); i > 0; i-- {
			e := edges[rng.Intn(len(edges))]
			if len(tp.Links) > 0 && rng.Intn(2) == 0 {
				prev := tp.Links[rng.Intn(len(tp.Links))]
				e = topology.Edge{U: prev.V, V: prev.U}
			}
			lf := fault.LinkFault{U: e.U, V: e.V, From: simnet.Time(rng.Intn(40)), Until: fault.Forever, Corrupt: rng.Intn(2) == 0}
			if rng.Intn(3) > 0 {
				lf.Until = lf.From + 1 + simnet.Time(rng.Intn(40))
			}
			tp.Links = append(tp.Links, lf)
		}
		tick := []time.Duration{time.Millisecond, 7 * time.Millisecond, 250 * time.Microsecond}[rng.Intn(3)]
		p, err := NewPlan(Config{Graph: g, Plan: tp, TickDur: tick, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		in, err := tp.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		offsets := []time.Duration{-time.Hour, -tick, -1, 0, time.Hour}
		for _, lf := range tp.Links {
			for _, at := range []simnet.Time{lf.From, lf.Until} {
				if at != fault.Forever {
					edge := time.Duration(at) * tick
					offsets = append(offsets, edge-1, edge, edge+tick-1)
				}
			}
		}
		for _, a := range g.Arcs() {
			for _, off := range offsets {
				want := simnet.FaultNone
				if off >= 0 {
					want = in.Relay(simnet.PacketID{}, 0, a.From, a.To, simnet.Time(off/tick))
				}
				seen[want]++
				act := p.Filter(a.From, a.To, off)
				if act != (transport.FilterAction{Drop: want == simnet.FaultDrop, Corrupt: want == simnet.FaultCorrupt}) ||
					p.Partitioned(a.From, a.To, off) != (want == simnet.FaultDrop) {
					t.Fatalf("trial %d: %d->%d at %s (tick %s): filter %+v, partitioned %v; injector %v\nplan %+v",
						trial, a.From, a.To, off, tick, act, p.Partitioned(a.From, a.To, off), want, tp)
				}
			}
		}
	}
	if seen[simnet.FaultDrop] == 0 || seen[simnet.FaultCorrupt] == 0 {
		t.Fatalf("plans too tame: verdicts %v", seen)
	}
}

// TestDelayBoundedByMaxDelay: a delayed frame waits more than zero and
// at most MaxDelay (default 5 ms).
func TestDelayBoundedByMaxDelay(t *testing.T) {
	for _, c := range []struct {
		rate     float64
		max, cap time.Duration
	}{{1, 3 * time.Millisecond, 3 * time.Millisecond}, {0.1, 3 * time.Millisecond, 3 * time.Millisecond}, {0.5, 0, 5 * time.Millisecond}} {
		p := mustPlan(t, Config{Seed: 9, DelayRate: c.rate, MaxDelay: c.max})
		delayed := 0
		for k := 0; k < 2000; k++ {
			d := p.Filter(0, 1, 0).Delay
			if d < 0 || d > c.cap {
				t.Fatalf("rate %v: delay %s outside [0, %s]", c.rate, d, c.cap)
			}
			if d > 0 {
				delayed++
			}
		}
		if delayed == 0 || (c.rate == 1 && delayed != 2000) {
			t.Fatalf("rate %v: %d of 2000 frames delayed", c.rate, delayed)
		}
	}
}

// TestNewPlanRejectsRatesOutsideUnit: every background rate must lie
// in [0, 1]; NaN does not.
func TestNewPlanRejectsRatesOutsideUnit(t *testing.T) {
	set := []func(*Config, float64){
		func(c *Config, r float64) { c.DropRate = r },
		func(c *Config, r float64) { c.DupRate = r },
		func(c *Config, r float64) { c.CorruptRate = r },
		func(c *Config, r float64) { c.DelayRate = r },
	}
	for i, f := range set {
		for _, r := range []float64{-0.01, 1.01, math.NaN(), math.Inf(1)} {
			cfg := Config{Graph: q2}
			f(&cfg, r)
			if _, err := NewPlan(cfg); err == nil {
				t.Errorf("rate %d = %v accepted", i, r)
			}
		}
		for _, r := range []float64{0, 1} {
			cfg := Config{Graph: q2}
			f(&cfg, r)
			if _, err := NewPlan(cfg); err != nil {
				t.Errorf("rate %d = %v rejected: %v", i, r, err)
			}
		}
	}
}

// TestCrashesScaledByTickDur: a crash at tick k happens k·TickDur into
// the run; other node faults are not crashes.
func TestCrashesScaledByTickDur(t *testing.T) {
	p := mustPlan(t, Config{TickDur: 30 * time.Millisecond, Plan: &fault.TemporalPlan{Nodes: []fault.NodeFault{
		{Node: 3, Kind: fault.Crash, At: 4},
		{Node: 1, Kind: fault.Byzantine, At: 2},
	}}})
	got := p.Crashes()
	if len(got) != 1 || got[3] != 120*time.Millisecond {
		t.Fatalf("crashes %v, want map[3:120ms]", got)
	}
	if n := len(mustPlan(t, Config{}).Crashes()); n != 0 {
		t.Fatalf("a plan without faults lists %d crashes", n)
	}
}

// TestProxySeversAndRefusesInsidePartition: a proxy forwards frames
// before a partition window; inside it, a live connection is severed
// at its next frame (which is lost) and a new connection is hung up at
// once; after the window it forwards again.
func TestProxySeversAndRefusesInsidePartition(t *testing.T) {
	const tick = 100 * time.Millisecond
	plan := mustPlan(t, Config{TickDur: tick, Epoch: time.Now(), Plan: &fault.TemporalPlan{Links: []fault.LinkFault{
		{U: 0, V: 1, From: 4, Until: 12},
	}}})
	target, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	got := make(chan string, 16)
	go func() {
		for {
			c, err := target.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					body, err := transport.ReadFrame(c)
					if err != nil {
						return
					}
					got <- string(body)
				}
			}()
		}
	}()
	px, err := NewProxy(plan, 0, 1, target.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	send := func(c net.Conn, body string) {
		t.Helper()
		if err := transport.WriteFrame(c, []byte(body)); err != nil {
			t.Fatalf("write %q: %v", body, err)
		}
	}
	expect := func(want string) {
		t.Helper()
		select {
		case body := <-got:
			if body != want {
				t.Fatalf("target got %q, want %q", body, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("target never got %q", want)
		}
	}
	// hungUp reports whether the proxy closed c within a second.
	hungUp := func(c net.Conn) bool {
		c.SetReadDeadline(time.Now().Add(time.Second))
		_, err := c.Read(make([]byte, 1))
		return err != nil && !isTimeout(err)
	}
	sleepUntil := func(at time.Duration) { time.Sleep(time.Until(plan.Epoch().Add(at))) }

	live, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	send(live, "before")
	expect("before")
	if since := time.Since(plan.Epoch()); since >= 4*tick {
		t.Skipf("setup took %s, past the window's start", since)
	}

	sleepUntil(5 * tick)
	send(live, "inside")
	if !hungUp(live) {
		t.Fatal("live connection not severed inside the partition window")
	}
	fresh, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if !hungUp(fresh) {
		t.Fatal("new connection not refused inside the partition window")
	}

	sleepUntil(12 * tick)
	after, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	send(after, "after")
	expect("after")
	select {
	case body := <-got:
		t.Fatalf("target got %q; the frame sent inside the window must be lost", body)
	default:
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
