package simnet_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// componentFamilies are the topologies of the component identity matrix:
// hypercubes of even and odd degree, a square torus, a hexagonal mesh, a
// twisted cube and a k-ary torus.
var componentFamilies = []string{"Q4", "Q5", "SQ4", "H3", "TQ4", "KT4x2"}

// componentWidths are the widths (see simnet.SetWidth) compared against
// one worker: powers of two, and odd counts that load workers unevenly
// or leave some idle.
var componentWidths = []int{2, 3, 4, 7}

// componentCase is one row of the matrix.
type componentCase struct {
	mode     simnet.Mode
	sat      bool
	mu       int
	rho      float64
	eta      int
	compiled bool // specs carry their cycle's compiled doubled path
}

func (c componentCase) params() simnet.Params {
	return simnet.Params{TauS: 100, Alpha: 20, Mu: c.mu, D: 37, Mode: c.mode, Rho: c.rho, Seed: 7}
}

func (c componentCase) String() string {
	return fmt.Sprintf("%s/sat=%t/mu=%d/rho=%g/eta=%d/compiled=%t", c.mode, c.sat, c.mu, c.rho, c.eta, c.compiled)
}

// chainRun is everything a chain of stage runs on one Network outputs.
type chainRun struct {
	results []simnet.Result // per stage run: every counter and Finish
	copies  *simnet.CopyMatrix
	ledger  *simnet.CopyLedger
	links   []simnet.ArcState // after the last stage run
}

// runChain simulates two IHC broadcasts back to back on one Network at
// width w: 2η stage runs, each injected when the previous one finished,
// sharing one copy matrix and one ledger. It also reports the most
// workers any stage run planned.
func runChain(t *testing.T, x *core.IHC, c componentCase, w int, sc *simnet.Scratch) (chainRun, int) {
	t.Helper()
	defer simnet.SetWidth(w)()
	net, err := simnet.New(x.Graph(), c.params())
	if err != nil {
		t.Fatal(err)
	}
	var paths []*simnet.CompiledPath
	if c.compiled {
		for j := 0; j < x.Gamma(); j++ {
			cyc := x.DirectedCycle(j)
			cp, err := net.CompilePath(append(append([]topology.Node(nil), cyc...), cyc...))
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, cp)
		}
	}
	out := chainRun{copies: simnet.NewCopyMatrix(x.N()), ledger: simnet.NewCopyLedger(x.N())}
	opts := simnet.Options{Copies: out.copies, Saturated: c.sat, Ledger: out.ledger}
	planned := 0
	start := simnet.Time(0)
	for round := 0; round < 2; round++ {
		for stage := 0; stage < c.eta; stage++ {
			specs, err := x.StagePackets(nil, stage, c.eta, start, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.compiled {
				for i := range specs {
					j := specs[i].ID.Channel
					specs[i].Path, specs[i].PathOff = paths[j], x.ID(j, specs[i].ID.Source)
				}
			}
			k, err := net.PlannedWorkers(specs, opts)
			if err != nil {
				t.Fatal(err)
			}
			planned = max(planned, k)
			r, err := net.RunScratch(specs, opts, sc)
			if err != nil {
				t.Fatal(err)
			}
			out.results = append(out.results, *r)
			start = r.Finish
		}
	}
	out.links = net.LinkState()
	return out, planned
}

// TestComponentsIdentical pins the component-parallel drain to one
// worker across switching modes, saturation, packet lengths, background
// load and interleaving distances on six families: every counter, every
// stage's Finish, the shared copy matrix and ledger, and the final state
// of every link must match at every width. The second broadcast of each
// chain runs on the link state the first one left, so a worker that
// failed to hand its links back would show up there as well.
func TestComponentsIdentical(t *testing.T) {
	sc := simnet.NewScratch() // one scratch for every run: worker state must not leak between them
	var cases []componentCase
	for _, mode := range []simnet.Mode{simnet.VirtualCutThrough, simnet.StoreAndForward, simnet.Wormhole} {
		for _, sat := range []bool{false, true} {
			for mu := 1; mu <= 3; mu++ {
				for _, rho := range []float64{0, 0.2} {
					for eta := 1; eta <= 2; eta++ {
						cases = append(cases, componentCase{mode, sat, mu, rho, eta, len(cases)%2 == 1})
					}
				}
			}
		}
	}
	for _, fam := range componentFamilies {
		in, err := hamilton.Parse(fam)
		if err != nil {
			t.Fatal(err)
		}
		g, cycles, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.New(g, cycles)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fam, func(t *testing.T) {
			for _, c := range cases {
				want, k := runChain(t, x, c, 1, sc)
				if k != 1 {
					t.Fatalf("%v: width 1 planned %d workers", c, k)
				}
				if err := want.ledger.VerifyATA(2 * x.Gamma()); err != nil {
					t.Fatalf("%v: one-worker reference fails the ATA postcondition: %v", c, err)
				}
				if err := want.copies.VerifyATA(2 * x.Gamma()); err != nil {
					t.Fatalf("%v: one-worker reference copy matrix fails the ATA postcondition: %v", c, err)
				}
				for _, w := range componentWidths {
					got, k := runChain(t, x, c, w, sc)
					if k < 2 {
						t.Fatalf("%v width %d: planned %d workers for %d arc-disjoint cycles", c, w, k, x.Gamma())
					}
					if !reflect.DeepEqual(got.results, want.results) {
						t.Errorf("%v width %d: stage results differ:\n got %+v\nwant %+v", c, w, got.results, want.results)
					}
					if !reflect.DeepEqual(got.copies, want.copies) {
						t.Errorf("%v width %d: copy matrix differs", c, w)
					}
					if !reflect.DeepEqual(got.ledger, want.ledger) {
						t.Errorf("%v width %d: ledger differs", c, w)
					}
					if !reflect.DeepEqual(got.links, want.links) {
						t.Errorf("%v width %d: final link state differs", c, w)
					}
				}
			}
		})
	}
}

// appendingHook records every hop into a slice without a lock: run
// concurrently it would race. A run with a fault hook must therefore
// stay on one goroutine at any width.
type appendingHook struct{ hops []simnet.Time }

func (h *appendingHook) Relay(_ simnet.PacketID, _ int, _, _ topology.Node, depart simnet.Time) simnet.FaultAction {
	h.hops = append(h.hops, depart)
	return simnet.FaultNone
}

// nopObserver and nopController are the cheapest sink and controller.
type nopObserver struct{}

func (nopObserver) OnHop(simnet.HopEvent)     {}
func (nopObserver) OnDeliver(simnet.Delivery) {}

type nopController struct{}

func (nopController) Attach(*simnet.Runtime, []simnet.PacketSpec) {}
func (nopController) OnDeliver(int32, topology.Node, simnet.Time) {}
func (nopController) OnTimer(simnet.Time, int64)                  {}

// TestComponentsFaultHookOneGoroutine pins what holds a run on one
// worker. At width 4 a stage with several arc-disjoint components plans
// several workers, and the same stage with a controller, a fault hook,
// an observer, a delivery log or an After list plans one; a copy matrix
// and a ledger do not hold it. The
// hooked stage then runs with a hook that appends without a lock, which
// -race would catch if two workers called it.
func TestComponentsFaultHookOneGoroutine(t *testing.T) {
	defer simnet.SetWidth(4)()
	g := topology.MustHypercube(4)
	cycles, err := hamilton.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := x.StagePackets(nil, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(g, simnet.Params{TauS: 100, Alpha: 20, Mu: 1, D: 37})
	if err != nil {
		t.Fatal(err)
	}
	if k, err := net.PlannedWorkers(specs, simnet.Options{}); err != nil || k < 2 {
		t.Fatalf("plain stage planned %d workers (%v), want several: the test would not exercise the parallel path", k, err)
	}
	hook := &appendingHook{}
	after := slices.Clone(specs)
	after[1].After = []int{0}
	for _, tc := range []struct {
		name  string
		specs []simnet.PacketSpec
		opts  simnet.Options
	}{
		{"Control", specs, simnet.Options{Control: nopController{}}},
		{"Fault", specs, simnet.Options{Fault: hook}},
		{"Observe", specs, simnet.Options{Observe: nopObserver{}}},
		{"Log", specs, simnet.Options{Log: new([]simnet.Delivery)}},
		{"After", after, simnet.Options{}},
	} {
		if k, err := net.PlannedWorkers(tc.specs, tc.opts); err != nil || k != 1 {
			t.Errorf("%s: planned %d workers (%v), want 1", tc.name, k, err)
		}
	}
	sinks := simnet.Options{Copies: simnet.NewCopyMatrix(g.N()), Ledger: simnet.NewCopyLedger(g.N())}
	if k, err := net.PlannedWorkers(specs, sinks); err != nil || k < 2 {
		t.Errorf("copy matrix and ledger: planned %d workers (%v), want several", k, err)
	}
	res, err := net.Run(specs, simnet.Options{Fault: hook})
	if err != nil {
		t.Fatal(err)
	}
	if hops := res.CutThroughs + res.BufferedHops + res.Stalls + res.Injections; len(hook.hops) != hops {
		t.Fatalf("hook saw %d hops, the run performed %d", len(hook.hops), hops)
	}
}

// TestComponentsIdenticalRegistry runs a full IHC broadcast with the
// copy matrix and the ledger on every conformance size of every
// family, at one worker and at widths 2 and 4: the whole
// core.Result — every counter, every stage finish, the copy matrix and
// the ledger — must be identical. Odd-N families run η = μ = 1, as the
// conformance battery does.
func TestComponentsIdenticalRegistry(t *testing.T) {
	for _, f := range hamilton.Families() {
		for _, params := range f.Conformance {
			in, err := f.New(params...)
			if err != nil {
				t.Fatal(err)
			}
			g, cycles, err := in.Build()
			if err != nil {
				t.Fatal(err)
			}
			x, err := core.New(g, cycles)
			if err != nil {
				t.Fatal(err)
			}
			eta := 2
			if in.N%2 != 0 {
				eta = 1
			}
			cfg := core.Config{Eta: eta, Params: simnet.Params{TauS: 100, Alpha: 20, Mu: eta, D: 37}, Ledger: true}
			run := func(w int) *core.Result {
				defer simnet.SetWidth(w)()
				res, err := x.Run(cfg)
				if err != nil {
					t.Fatalf("%s width %d: %v", in.Name, w, err)
				}
				return res
			}
			want := run(1)
			for _, w := range []int{2, 4} {
				if got := run(w); !reflect.DeepEqual(got, want) {
					t.Errorf("%s width %d: result differs from one worker:\n got %+v\nwant %+v", in.Name, w, got, want)
				}
			}
		}
	}
}
