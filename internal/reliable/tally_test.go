package reliable

import (
	"math/rand"
	"reflect"
	"testing"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/repair"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// logGrade is the reference the tally replaced: it rebuilds every
// (receiver, source) pair's copy list from an ordered delivery log,
// skipping NAKs (negative Seq) and counting retransmissions as genuine
// copies, round-trips every intact copy through the keyring's MACs in
// signed mode, and votes each fault-free pair over its list in delivery
// order.
func logGrade(n int, ds []simnet.Delivery, kind []fault.Kind, signed bool, kr *Keyring) (Outcome, error) {
	copies := make([][]Copy, n*n)
	for _, d := range ds {
		if d.ID.Seq < 0 {
			continue
		}
		src := d.ID.Source
		payload := TruthPayload(src)
		if kind[src] == fault.Byzantine && d.ID.Channel%2 == 1 {
			payload = TwoFacedPayload(src)
		}
		cp := Copy{Payload: payload, Valid: true}
		if d.Corrupted {
			cp = Copy{Payload: CorruptPayload(payload), Valid: false}
		}
		if signed && kr != nil && cp.Valid {
			msg, err := kr.Sign(Message{Source: src, Payload: cp.Payload})
			if err == nil {
				cp.Valid, err = kr.Verify(msg)
			}
			if err != nil {
				return Outcome{}, err
			}
		}
		i := int(d.Node)*n + int(src)
		copies[i] = append(copies[i], cp)
	}
	var out Outcome
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			if r == s || kind[r] != fault.Healthy || kind[s] != fault.Healthy {
				continue
			}
			out.Pairs++
			vote := VoteUnsigned
			if signed {
				vote = VoteSigned
			}
			payload, ok := vote(copies[r*n+s])
			switch {
			case !ok:
				out.Missing++
			case string(payload) == string(TruthPayload(topology.Node(s))):
				out.Correct++
			default:
				out.Wrong++
			}
		}
	}
	return out, nil
}

// randomTemporalPlan draws a plan on g: up to maxNodes faulty nodes of
// any kind, half of them activating mid-run, and up to four link windows,
// broken or corrupting, half of them permanent, listed in either
// orientation (so a link is sometimes listed twice). finish, a
// fault-free run's finish, scales activation times and windows.
func randomTemporalPlan(rng *rand.Rand, g *topology.Graph, maxNodes int, finish simnet.Time) *fault.TemporalPlan {
	tp := &fault.TemporalPlan{Seed: rng.Int63()}
	for _, v := range rng.Perm(g.N())[:rng.Intn(maxNodes+1)] {
		nf := fault.NodeFault{Node: topology.Node(v), Kind: fault.Kind(1 + rng.Intn(3))}
		if rng.Intn(2) == 0 {
			nf.At = simnet.Time(rng.Int63n(int64(finish)))
		}
		tp.Nodes = append(tp.Nodes, nf)
	}
	edges := g.Edges()
	for i := rng.Intn(5); i > 0; i-- {
		e := edges[rng.Intn(len(edges))]
		lf := fault.LinkFault{U: e.U, V: e.V, Until: fault.Forever, Corrupt: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			lf.U, lf.V = lf.V, lf.U
		}
		if rng.Intn(2) == 0 {
			lf.From = simnet.Time(rng.Int63n(int64(finish)))
			lf.Until = lf.From + 1 + simnet.Time(rng.Int63n(int64(finish)))
		}
		tp.Links = append(tp.Links, lf)
	}
	return tp
}

// TestTallyMatchesDeliveryLog pins EvaluateTimed and EvaluateRepaired,
// which tally copies as the engine delivers them, to logGrade over the
// same run's ordered delivery log: random temporal plans on Q4 and Q6,
// each graded unsigned, signed without a keyring and signed with one.
// Q6 plans fault at most one node: the repair layer's recovery of a
// faulty node costs about 20 times that of a broken link there.
// Every grader must also still refuse a keyring smaller than the graph.
func TestTallyMatchesDeliveryLog(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	p := simnet.Params{}.Defaulted()
	var naks, corrupted, wrong, missing int
	for _, tc := range []struct {
		g               *topology.Graph
		plans, maxNodes int
	}{{topology.MustHypercube(4), 200, 3}, {topology.MustHypercube(6), 30, 1}} {
		x := mustIHC(t, tc.g)
		n := tc.g.N()
		kr := NewKeyring(n, 4)
		free, err := x.Run(core.Config{Eta: p.Mu, Params: p, SkipCopies: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.plans; i++ {
			tp := randomTemporalPlan(rng, tc.g, tc.maxNodes, free.Finish)
			inj, err := tp.Compile(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			kind := make([]fault.Kind, n)
			for _, nf := range tp.Nodes {
				kind[nf.Node] = nf.Kind
			}
			for _, repaired := range []bool{false, true} {
				// The logged run also fills a tally, whose counts must be
				// the log's copies (NAKs skipped) sorted by kind.
				direct := newTally(kind)
				cfg := core.Config{Eta: p.Mu, Params: p, SkipCopies: true, Fault: inj, RecordDeliveries: true, Observe: direct}
				var res *core.Result
				if repaired {
					res, _, err = repair.Run(x, cfg, repair.Config{})
				} else {
					res, err = x.Run(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				counts := make([][4]int32, n*n)
				for _, d := range res.Deliveriesv {
					switch {
					case d.ID.Seq < 0:
						naks++
						continue
					case d.Corrupted:
						corrupted++
					}
					k := 0
					if kind[d.ID.Source] == fault.Byzantine && d.ID.Channel%2 == 1 {
						k = 2
					}
					if d.Corrupted {
						k++
					}
					counts[int(d.Node)*n+int(d.ID.Source)][k]++
				}
				if !reflect.DeepEqual(direct.counts, counts) {
					t.Fatalf("%s plan %d repaired=%v: tally counts differ from the delivery log's", tc.g.Name(), i, repaired)
				}
				for _, mode := range []struct {
					signed bool
					kr     *Keyring
				}{{false, nil}, {true, nil}, {true, kr}} {
					want, err := logGrade(n, res.Deliveriesv, kind, mode.signed, mode.kr)
					if err != nil {
						t.Fatal(err)
					}
					var got Outcome
					if repaired {
						var ro RepairedOutcome
						ro, err = EvaluateRepaired(x, tp, mode.signed, mode.kr, core.Config{}, repair.Config{})
						if ro.Finish != int64(res.Finish) || ro.Events != res.Events {
							t.Fatalf("%s plan %d: tallied repaired run finished at %d after %d events, logged run at %d after %d",
								tc.g.Name(), i, ro.Finish, ro.Events, res.Finish, res.Events)
						}
						got = ro.Outcome
					} else {
						got, err = EvaluateTimed(x, tp, mode.signed, mode.kr, core.Config{})
					}
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s plan %d repaired=%v signed=%v keyring=%v: tally %+v != delivery log %+v\nplan: %+v",
							tc.g.Name(), i, repaired, mode.signed, mode.kr != nil, got, want, tp)
					}
					wrong += got.Wrong
					missing += got.Missing
				}
			}
		}
	}
	// The plans must reach every path the tally takes differently from
	// a log: NAKs, corrupted copies, and pairs decided wrong or not at all.
	if naks == 0 || corrupted == 0 || wrong == 0 || missing == 0 {
		t.Fatalf("plans too tame: %d NAKs, %d corrupted copies, %d wrong and %d missing pairs", naks, corrupted, wrong, missing)
	}

	g := topology.MustHypercube(4)
	x := mustIHC(t, g)
	short := NewKeyring(g.N()-1, 4)
	if _, err := EvaluateIHC(x, &fault.TemporalPlan{Seed: 1}, true, short); err == nil {
		t.Error("EvaluateIHC accepted a keyring smaller than the graph")
	}
	if _, err := EvaluateTimed(x, &fault.TemporalPlan{}, true, short, core.Config{}); err == nil {
		t.Error("EvaluateTimed accepted a keyring smaller than the graph")
	}
	if _, err := EvaluateRepaired(x, &fault.TemporalPlan{}, true, short, core.Config{}, repair.Config{}); err == nil {
		t.Error("EvaluateRepaired accepted a keyring smaller than the graph")
	}
}
