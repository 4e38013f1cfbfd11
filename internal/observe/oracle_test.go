package observe

import (
	"strings"
	"testing"

	"ihc/internal/core"
	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

func runWithOracle(t *testing.T, x *core.IHC, cfg core.Config, ocfg OracleConfig) (*Oracle, *core.Result) {
	t.Helper()
	o, err := NewOracle(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observe = o
	res, err := x.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, res
}

// η = μ on SQ4: every live check must pass — zero contention, exact
// Table II finish, γ edge-disjoint copies everywhere, occupancy 1.
func TestOracleContentionFreePass(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := newIHC(t, g)
	o, res := runWithOracle(t,
		x, core.Config{Eta: 2, Params: testParams, SkipCopies: true},
		OracleConfig{
			X: x, Params: testParams, Eta: 2,
			ExpectContentionFree: true,
			ExpectFinish:         model.IHCBest(testParams, g.N(), 2),
			ExpectCopies:         x.Gamma(),
		})
	if err := o.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Contentions != 0 || st.Violations != 0 {
		t.Fatalf("violations on a contention-free run: %+v", st)
	}
	if st.Finish != res.Finish {
		t.Fatalf("oracle finish %d != result finish %d", st.Finish, res.Finish)
	}
	if st.PeakOccupancy != 1 {
		t.Fatalf("peak occupancy %d, pure cut-through holds 1 flit", st.PeakOccupancy)
	}
	if st.DataHops != x.Gamma()*g.N()*(g.N()-1) {
		t.Fatalf("observed %d data hops, want γN(N-1) = %d", st.DataHops, x.Gamma()*g.N()*(g.N()-1))
	}
}

// Theorem 4: η = μ = 1 finishes at exactly T = τ_S + (N-1)α.
func TestOracleTheorem4ExactFinish(t *testing.T) {
	p := simnet.Params{TauS: 100, Alpha: 20, Mu: 1, D: 37}
	for _, m := range []int{4, 5} {
		g := topology.MustHypercube(m)
		x := newIHC(t, g)
		o, _ := runWithOracle(t,
			x, core.Config{Eta: 1, Params: p, SkipCopies: true},
			OracleConfig{
				X: x, Params: p, Eta: 1,
				ExpectContentionFree: true,
				ExpectFinish:         model.OptimalATATime(p, g.N()),
				ExpectCopies:         x.Gamma(),
			})
		if err := o.Finalize(); err != nil {
			t.Fatalf("Q%d: %v", m, err)
		}
	}
}

// η < μ: the engine buffers packets and the oracle must count the
// contention (the checker's teeth), while every structural invariant
// — routes, copies, exclusivity — still holds.
func TestOracleDetectsContention(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := newIHC(t, g)
	o, res := runWithOracle(t,
		x, core.Config{Eta: 1, Params: testParams, SkipCopies: true},
		OracleConfig{X: x, Params: testParams, Eta: 1, ExpectFinish: -1, ExpectCopies: x.Gamma()})
	if err := o.Finalize(); err != nil {
		t.Fatalf("structural invariants must survive contention: %v", err)
	}
	st := o.Stats()
	if st.Contentions == 0 {
		t.Fatal("η < μ run produced no contention — the oracle has no teeth")
	}
	if st.Contentions < res.BufferedHops {
		t.Fatalf("oracle counted %d contentions, engine buffered %d hops", st.Contentions, res.BufferedHops)
	}
	if st.OverlapViolations != 0 {
		t.Fatalf("engine let packets share a link: %d overlaps", st.OverlapViolations)
	}

	// The same run asserted contention-free must fail loudly.
	o2, _ := runWithOracle(t,
		x, core.Config{Eta: 1, Params: testParams, SkipCopies: true},
		OracleConfig{X: x, Params: testParams, Eta: 1, ExpectContentionFree: true, ExpectFinish: -1})
	err := o2.Finalize()
	if err == nil {
		t.Fatal("ExpectContentionFree did not flag an η < μ run")
	}
	if !strings.Contains(err.Error(), "despite η >= μ") {
		t.Fatalf("unhelpful violation message: %v", err)
	}
}

// Light mode keeps the checks that matter at Q8+ scale: route
// conformance, exclusivity, contention counting, exact finish.
func TestOracleLightMode(t *testing.T) {
	g := topology.MustHypercube(5)
	x := newIHC(t, g)
	o, _ := runWithOracle(t,
		x, core.Config{Eta: 2, Params: testParams, SkipCopies: true},
		OracleConfig{
			X: x, Params: testParams, Eta: 2, Light: true,
			ExpectContentionFree: true,
			ExpectFinish:         model.IHCBest(testParams, g.N(), 2),
		})
	if err := o.Finalize(); err != nil {
		t.Fatal(err)
	}
	if o.Stats().DataHops == 0 {
		t.Fatal("light oracle observed nothing")
	}
}

// Synthetic streams: each invariant violation must be detected and
// attributed to the right counter.
func TestOracleSyntheticViolations(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := newIHC(t, g)
	cyc := x.DirectedCycle(0)
	alpha := testParams.Alpha

	newO := func(cfg OracleConfig) *Oracle {
		cfg.X = x
		cfg.Params = testParams
		if cfg.Eta == 0 {
			cfg.Eta = 2
		}
		if cfg.ExpectFinish == 0 {
			cfg.ExpectFinish = -1
		}
		o, err := NewOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	// hop k of the cycle-0 packet injected by cyc[0], with correct
	// route endpoints; timing controlled by the caller.
	hop := func(k int, depart simnet.Time, kind simnet.HopKind) simnet.HopEvent {
		return simnet.HopEvent{
			ID:  simnet.PacketID{Source: cyc[0], Channel: 0, Seq: 0},
			Hop: k, From: cyc[k], To: cyc[(k+1)%len(cyc)], Arc: 100 + k,
			Kind: kind, HeaderDepart: depart, TailArrive: depart + testParams.PacketTime(),
			Flits: testParams.Mu,
		}
	}

	t.Run("overlap", func(t *testing.T) {
		o := newO(OracleConfig{})
		h1 := hop(0, 100, simnet.HopInject)
		h2 := hop(1, 100+alpha, simnet.HopCut)
		h2.Arc = h1.Arc // same directed link, overlapping interval, different packet
		h2.ID.Seq = 1
		h2.Hop = 0
		h2.From, h2.To = h1.From, h1.To
		h2.ID.Source = h1.From
		o.OnHop(h1)
		o.OnHop(h2)
		if o.Stats().OverlapViolations != 1 {
			t.Fatalf("overlap not detected: %+v", o.Stats())
		}
	})

	t.Run("route", func(t *testing.T) {
		o := newO(OracleConfig{})
		h := hop(1, 200, simnet.HopCut)
		h.From, h.To = h.To, h.From // traverse the cycle backwards
		o.OnHop(h)
		if o.Stats().RouteViolations != 1 {
			t.Fatalf("route violation not detected: %+v", o.Stats())
		}
		bad := hop(0, 100, simnet.HopInject)
		bad.ID.Channel = 99
		o.OnHop(bad)
		if o.Stats().RouteViolations != 2 {
			t.Fatalf("bogus channel not detected: %+v", o.Stats())
		}
	})

	t.Run("late-cut", func(t *testing.T) {
		o := newO(OracleConfig{})
		o.OnHop(hop(0, 100, simnet.HopInject))
		o.OnHop(hop(1, 100+3*alpha, simnet.HopCut)) // header 3α late
		st := o.Stats()
		if st.LateCuts != 1 {
			t.Fatalf("late cut not detected: %+v", st)
		}
	})

	t.Run("occupancy", func(t *testing.T) {
		o := newO(OracleConfig{})
		big := hop(0, 100, simnet.HopInject)
		big.Flits = 5
		o.OnHop(big)
		next := hop(1, 100+10*alpha, simnet.HopBuffer)
		next.Flits = 5
		next.Blocked = true
		o.OnHop(next)
		st := o.Stats()
		if st.OccupancyViolations != 1 || st.PeakOccupancy != 5 {
			t.Fatalf("occupancy breach (5 flits > μ = 2) not detected: %+v", st)
		}
	})

	t.Run("delivery", func(t *testing.T) {
		o := newO(OracleConfig{ExpectCopies: x.Gamma()})
		id := simnet.PacketID{Source: cyc[0], Channel: 0, Seq: 0}
		o.OnDeliver(simnet.Delivery{ID: id, Node: cyc[0], At: 500}) // own message
		o.OnDeliver(simnet.Delivery{ID: id, Node: cyc[1], At: 500})
		o.OnDeliver(simnet.Delivery{ID: id, Node: cyc[1], At: 540}) // duplicate on one cycle
		st := o.Stats()
		if st.SelfDeliveries != 1 || st.DuplicateCopies != 1 {
			t.Fatalf("delivery violations not detected: %+v", st)
		}
		if err := o.Finalize(); err == nil {
			t.Fatal("missing copies not reported at Finalize")
		} else if st := o.Stats(); st.MissingCopies == 0 {
			t.Fatalf("no missing-copy count: %+v", st)
		}
	})

	t.Run("finish", func(t *testing.T) {
		o := newO(OracleConfig{ExpectFinish: 1000})
		o.OnDeliver(simnet.Delivery{
			ID:   simnet.PacketID{Source: cyc[0], Channel: 0, Seq: 0},
			Node: cyc[1], At: 999,
		})
		if err := o.Finalize(); err == nil || o.Stats().FinishViolations != 1 {
			t.Fatalf("finish mismatch not detected: %v %+v", err, o.Stats())
		}
	})
}

func TestOracleConfigValidation(t *testing.T) {
	x := newIHC(t, topology.MustSquareTorus(4))
	bad := []OracleConfig{
		{},                              // no instance
		{X: x, Eta: 0},                  // η out of range
		{X: x, Eta: 17},                 // η > N
		{X: x, Eta: 1, ExpectCopies: 9}, // more copies than cycles
	}
	for i, cfg := range bad {
		if _, err := NewOracle(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
