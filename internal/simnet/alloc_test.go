package simnet

import (
	"math"
	"testing"

	"ihc/internal/topology"
)

// pipelineSpecs builds the ring-pipeline workload used by the allocation
// tests: n/2 packets, each routed n-1 hops around an n-cycle.
func pipelineSpecs(n int) (*topology.Graph, []PacketSpec) {
	g := topology.MustCycle(n)
	ring := make([]topology.Node, 2*n)
	for i := range ring {
		ring[i] = topology.Node(i % n)
	}
	specs := make([]PacketSpec, 0, n/2)
	for s := 0; s < n; s += 2 {
		specs = append(specs, PacketSpec{
			ID:    PacketID{Source: topology.Node(s)},
			Route: ring[s : s+n],
			Tee:   true,
		})
	}
	return g, specs
}

// TestRunScratchAllocFree pins the tentpole property of the flat-array
// engine: with a warmed Scratch, a whole run allocates only O(1) —
// the Network, the Result — regardless of how many events it processes.
// The issue's acceptance bound is ≤ 0.1 allocs/event; steady state is
// about three orders of magnitude below that. The controlled case sets
// and fires thousands of timers, so the timer heap and the token table
// must reuse their arrays too.
func TestRunScratchAllocFree(t *testing.T) {
	const n = 64
	g, specs := pipelineSpecs(n)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	ctl := &timerLoad{}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"controller", Options{Control: ctl}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScratch()
			run := func() *Result {
				net, err := New(g, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := net.RunScratch(specs, tc.opts, sc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run() // warm the scratch's backing arrays
			if res.Events == 0 {
				t.Fatal("no events processed")
			}
			if tc.opts.Control != nil && (ctl.fired != ctl.set || ctl.set < 1000) {
				t.Fatalf("controller set %d timers and %d fired, want them equal and >= 1000", ctl.set, ctl.fired)
			}

			allocs := testing.AllocsPerRun(10, func() { run() })
			perEvent := allocs / float64(res.Events)
			t.Logf("%.1f allocs/run over %d events = %.2g allocs/event", allocs, res.Events, perEvent)
			// The fresh Network and Result account for a handful of
			// allocations per run; anything per-event (the old
			// container/heap boxing was one alloc per push) would show up
			// as thousands.
			if allocs > 16 {
				t.Fatalf("%.1f allocs per run, want O(1)", allocs)
			}
			if perEvent > 0.1 {
				t.Fatalf("%.3f allocs/event exceeds the 0.1 acceptance bound", perEvent)
			}
		})
	}
}

// timerLoad is a controller that sets a timer at every delivery and
// another from every fourth timer that fires: the repair layer's timer
// traffic without its bookkeeping.
type timerLoad struct {
	rt         *Runtime
	set, fired int
}

func (c *timerLoad) Attach(rt *Runtime, specs []PacketSpec) {
	c.rt = rt
	c.set, c.fired = 0, 0
	c.rt.SetTimer(0, 0)
	c.set++
}

func (c *timerLoad) OnDeliver(pkt int32, node topology.Node, at Time) {
	c.rt.SetTimer(at+Time(pkt%7)*10, int64(c.set))
	c.set++
}

func (c *timerLoad) OnTimer(at Time, token int64) {
	if token < 0 || token >= int64(c.set) {
		panic("timer fired with a token that was never set")
	}
	c.fired++
	if token%4 == 0 {
		c.rt.SetTimer(at+5, int64(c.set))
		c.set++
	}
}

// TestRunScratchReuseIdentical checks the determinism oracle at the unit
// level: a reused Scratch and a fresh one produce identical results.
func TestRunScratchReuseIdentical(t *testing.T) {
	g, specs := pipelineSpecs(32)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	sc := NewScratch()
	var first Result
	for i := 0; i < 3; i++ {
		net, err := New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunScratch(specs, Options{}, sc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = *res
			continue
		}
		if *res != first {
			t.Fatalf("run %d with reused scratch differs: %+v != %+v", i, *res, first)
		}
	}
	net, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.RunScratch(specs, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *res != first {
		t.Fatalf("nil-scratch run differs from reused-scratch run: %+v != %+v", *res, first)
	}
}

// TestCopyMatrixSaturates verifies the uint16 overflow guard: counts pin
// at 65535 instead of wrapping, in both Add and Merge, and a saturated
// cell still fails VerifyATA so the overflow is loud.
func TestCopyMatrixSaturates(t *testing.T) {
	cm := NewCopyMatrix(2)
	for i := 0; i < math.MaxUint16+100; i++ {
		cm.Add(0, 1)
	}
	if got := cm.Get(0, 1); got != math.MaxUint16 {
		t.Fatalf("Add wrapped: count = %d, want %d", got, math.MaxUint16)
	}
	if err := cm.VerifyATA(100); err == nil {
		t.Fatal("VerifyATA accepted a saturated cell")
	}

	a, b := NewCopyMatrix(2), NewCopyMatrix(2)
	for i := 0; i < math.MaxUint16-1; i++ {
		a.Add(1, 0)
		b.Add(1, 0)
	}
	a.Merge(b)
	if got := a.Get(1, 0); got != math.MaxUint16 {
		t.Fatalf("Merge wrapped: count = %d, want %d", got, math.MaxUint16)
	}
	// A merge that stays in range must remain exact.
	c, d := NewCopyMatrix(2), NewCopyMatrix(2)
	c.Add(0, 1)
	d.Add(0, 1)
	d.Add(0, 1)
	c.Merge(d)
	if got := c.Get(0, 1); got != 3 {
		t.Fatalf("in-range merge: count = %d, want 3", got)
	}
}
