package cluster

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/stream"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

func q3(t *testing.T) *core.IHC {
	t.Helper()
	g := topology.MustHypercube(3)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// quick is a one-shot round of x at eta on the tests' short timing.
func quick(x *core.IHC, eta int) Config {
	return Config{
		Node: stream.Config{
			IHC: x, Eta: eta,
			StageDur:   30 * time.Millisecond,
			HopLatency: time.Millisecond,
			Slack:      60 * time.Millisecond,
			Retry:      transport.BackoffConfig{Seed: 42},
		},
		KeySeed: 7,
		Timeout: 20 * time.Second,
	}
}

// TestLoopbackFaultFree runs a fault-free Q3 ATA round over the
// in-process mesh and checks both the per-node γ-copy ledgers and the
// delivery-multiset equivalence against the discrete-event engine.
func TestLoopbackFaultFree(t *testing.T) {
	cfg := quick(q3(t), 2)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 8 {
		t.Fatalf("got %d survivors, want 8", len(res.Nodes))
	}
	if err := CompareWithSimnet(cfg.Node.IHC, cfg.Node.Eta, res); err != nil {
		t.Fatal(err)
	}
}

// TestTCPFaultFree is the same round over real sockets.
func TestTCPFaultFree(t *testing.T) {
	cfg := quick(q3(t), 2)
	cfg.TCP = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := CompareWithSimnet(cfg.Node.IHC, cfg.Node.Eta, res); err != nil {
		t.Fatal(err)
	}
}

// TestLoopbackChaos drives the full chaos scenario — drop, dup,
// corrupt, delay, partition, crash — over the in-process mesh and
// asserts the surviving nodes' exact γ-copy postcondition.
func TestLoopbackChaos(t *testing.T) {
	cfg := quick(q3(t), 2)
	cfg.Chaos = ChaosRound(cfg.Node, 99)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 6 {
		t.Fatalf("crashed = %v, want [6]", res.Crashed)
	}
	if len(res.Nodes) != 7 {
		t.Fatalf("got %d survivors, want 7", len(res.Nodes))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPChaos is the headline scenario over real sockets and
// socket-level chaos proxies.
func TestTCPChaos(t *testing.T) {
	cfg := quick(q3(t), 2)
	cfg.TCP = true
	cfg.Chaos = ChaosRound(cfg.Node, 99)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 7 {
		t.Fatalf("got %d survivors, want 7", len(res.Nodes))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEtaSweepOneShot runs one fault-free Q3 round at every η in
// [1,N]: each must pass Verify and match simnet's delivery multiset.
// At large η a node can hold every copy it expects before its own last
// stage starts, so the round completes only if an epoch closes after
// the node's own injections.
func TestEtaSweepOneShot(t *testing.T) {
	x := q3(t)
	for eta := 1; eta <= x.N(); eta++ {
		t.Run(fmt.Sprintf("eta=%d", eta), func(t *testing.T) {
			cfg := quick(x, eta)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := CompareWithSimnet(x, eta, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunRejectsBadKill: a kill the harness cannot execute is a config
// error, returned before any node starts.
func TestRunRejectsBadKill(t *testing.T) {
	ok := KillSpec{Node: 6, At: 0, Downtime: time.Millisecond}
	for _, tc := range []struct {
		name string
		kill KillSpec
		tcp  bool
	}{
		{"node outside the graph", KillSpec{Node: 8, Downtime: time.Millisecond}, false},
		{"negative node", KillSpec{Node: -1, Downtime: time.Millisecond}, false},
		{"negative time", KillSpec{Node: 6, At: -time.Millisecond, Downtime: time.Millisecond}, false},
		{"no downtime", KillSpec{Node: 6}, false},
		{"over TCP", ok, true},
	} {
		cfg := quick(q3(t), 2)
		cfg.TCP = tc.tcp
		cfg.Kill = &tc.kill
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted kill %+v", tc.name, tc.kill)
		}
	}
}

func quickStream(t *testing.T) Config {
	t.Helper()
	cfg := quick(q3(t), 2)
	cfg.Node.Epochs = 6
	cfg.Node.Period = 120 * time.Millisecond
	cfg.Node.Drain = 4 * time.Second
	cfg.Node.Gauges = &observe.StreamGauges{}
	cfg.Load = LoadSpec{Interval: 10 * time.Millisecond, Bytes: 64, HighEvery: 4}
	return cfg
}

// TestStreamFaultFree pipelines six epochs over a fault-free Q3
// loopback mesh under synthetic client load and checks every node's
// per-epoch γ-copy verdict, and that the stream took no load its epochs
// did not carry: the last epoch's drain closes each ingress, so nothing
// is left queued.
func TestStreamFaultFree(t *testing.T) {
	cfg := quickStream(t)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.EpochsCompleted < int64(cfg.Node.Epochs*8) {
		t.Fatalf("completed %d per-node epochs, want ≥ %d", res.Snapshot.EpochsCompleted, cfg.Node.Epochs*8)
	}
	if res.Snapshot.Payloads == 0 {
		t.Fatal("no client payloads delivered under load")
	}
	if d := res.Snapshot.QueueDepth; d != 0 {
		t.Fatalf("%d payloads still queued after the last epoch", d)
	}
}

// TestStreamEquivalenceOneShot is the acceptance bridge to the
// simulator: with no load, every epoch of every node must deliver the
// discrete-event engine's multiset — one copy per channel per source
// (CompareWithSimnet) — and every (source, channel) copy must carry the
// source's reliable.TruthPayload, the harness's injection when Load is
// zero. Up to stream.MaxInflight epochs overlap.
func TestStreamEquivalenceOneShot(t *testing.T) {
	cfg := quickStream(t)
	cfg.Node.Epochs = 3
	cfg.Node.CollectPayloads = true
	cfg.Load = LoadSpec{}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := CompareWithSimnet(cfg.Node.IHC, cfg.Node.Eta, res); err != nil {
		t.Fatal(err)
	}
	for v, results := range res.Nodes {
		if len(results) != cfg.Node.Epochs {
			t.Fatalf("node %d reported %d epochs, want %d", v, len(results), cfg.Node.Epochs)
		}
		for _, er := range results {
			for s := 0; s < cfg.Node.IHC.N(); s++ {
				src := topology.Node(s)
				if src == v {
					continue
				}
				want := reliable.TruthPayload(src)
				gamma := cfg.Node.IHC.Gamma()
				for j := 0; j < gamma; j++ {
					got := er.Payloads[s*gamma+j]
					if !bytes.Equal(got, want) {
						t.Fatalf("node %d epoch %d source %d channel %d: payload %x, want %x",
							v, er.Epoch, s, j, got, want)
					}
				}
			}
		}
	}
}

// TestTCPStream pipelines three epochs over real sockets through the
// chaos proxies — background frame faults and the {1,3} partition, no
// crash: every node must complete every epoch, each matching simnet's
// delivery multiset.
func TestTCPStream(t *testing.T) {
	cfg := quickStream(t)
	cfg.TCP = true
	cfg.Node.Epochs = 3
	cfg.Chaos = ChaosRound(cfg.Node, 99)
	cfg.Chaos.Plan.Nodes = nil
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 8 {
		t.Fatalf("got %d nodes, want 8", len(res.Nodes))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := CompareWithSimnet(cfg.Node.IHC, cfg.Node.Eta, res); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSoakKillRestart is the robustness core: Soak's twenty
// pipelined epochs (on the tests' quick node timing) with background
// frame chaos, a mid-stream partition window, and one node killed with
// zero notice and restarted cold. The victim must rediscover the epoch
// via the JOIN handshake and catch up; the survivors must complete
// every epoch — including the rounds that stalled waiting for the
// victim's copies — no high-priority payload may be shed, and no node
// may hold more than stream.MaxInflight live epochs open (Verify).
func TestStreamSoakKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	before := runtime.NumGoroutine()
	node := quick(q3(t), 2).Node
	node.Epochs = 20
	node.Period = 150 * time.Millisecond
	cfg := Soak(node, 99)
	cfg.KeySeed = 7
	cfg.Timeout = 45 * time.Second
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.EpochsCaughtUp == 0 {
		t.Fatal("kill/restart produced no catch-up epochs")
	}
	if res.Snapshot.Joins == 0 {
		t.Fatal("restarted node never sent a JOIN")
	}
	if res.Snapshot.PeakInflight < 1 {
		t.Fatalf("peak inflight %d: no node ever held an epoch open", res.Snapshot.PeakInflight)
	}
	// Goroutine hygiene: everything Run started must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestRunStopsLoadWithItsLifetime: a node's load generator stops when
// that lifetime's Run returns, not when the whole cluster run ends.
// Node 6 is killed and stays down past the Timeout, so the survivors'
// epochs stall and their runs end at the drain deadline, while Run
// itself waits out the Timeout for the victim's second lifetime. No
// more load may be offered than the generators can offer before that
// deadline (plus a margin for scheduling).
func TestRunStopsLoadWithItsLifetime(t *testing.T) {
	cfg := quickStream(t)
	cfg.Node.Epochs = 3
	cfg.Node.Drain = 300 * time.Millisecond
	cfg.Timeout = 3 * time.Second
	cfg.Kill = &KillSpec{Node: 6, At: 0, Downtime: time.Minute}
	start := time.Now()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < cfg.Timeout {
		t.Fatalf("Run returned after %s, before its %s timeout", time.Since(start), cfg.Timeout)
	}
	// Every survivor's run ends at epoch0 + Epochs·Period + Drain;
	// epoch0 is setupDelay after Run starts.
	const margin = 500 * time.Millisecond
	drainBy := setupDelay + time.Duration(cfg.Node.Epochs)*cfg.Node.Period + cfg.Node.Drain
	perNode := int64((drainBy+margin)/cfg.Load.Interval) + 1
	s := res.Snapshot
	offered := s.SubmittedHigh + s.SubmittedLow + s.ShedHigh + s.ShedLow
	if limit := perNode * int64(cfg.Node.IHC.N()); offered > limit {
		t.Fatalf("%d payloads offered, above the %d the generators can offer before the drain deadline (%s)", offered, limit, drainBy)
	}
	if offered == 0 {
		t.Fatal("no load offered")
	}
}

// TestVerifyRejectsPeakInflightAboveCap: a run whose nodes all
// completed every epoch still fails Verify when a node held more than
// stream.MaxInflight live epochs open at once.
func TestVerifyRejectsPeakInflightAboveCap(t *testing.T) {
	res := &Result{Epochs: 1, Nodes: map[topology.Node][]stream.EpochResult{
		0: {{Epoch: 0, Node: 0, Completed: true}},
	}}
	for _, tc := range []struct {
		peak int64
		ok   bool
	}{{0, true}, {stream.MaxInflight, true}, {stream.MaxInflight + 1, false}} {
		res.Snapshot.PeakInflight = tc.peak
		if err := res.Verify(); (err == nil) != tc.ok {
			t.Errorf("peak inflight %d: Verify = %v, want ok %v", tc.peak, err, tc.ok)
		}
	}
}
