package reliable

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Outcome grades an ATA reliable broadcast under faults, counting ordered
// (receiver, source) pairs of fault-free nodes.
type Outcome struct {
	Pairs   int // fault-free ordered pairs graded
	Correct int // voted to the true payload
	Wrong   int // voted to a different payload (undetected corruption)
	Missing int // no decision (no/ambiguous copies)
}

// CorrectFraction returns Correct / Pairs.
func (o Outcome) CorrectFraction() float64 {
	if o.Pairs == 0 {
		return 1
	}
	return float64(o.Correct) / float64(o.Pairs)
}

// EvaluateIHC runs the IHC all-to-all broadcast combinatorially (fault
// propagation along each directed-cycle route; timing is irrelevant to
// correctness) under a static fault plan, applies the selected voter at
// every fault-free receiver, and grades the result against the truth.
// It has no clock, so a plan with a timed entry is an error
// (fault.TemporalPlan.ValidateStatic); EvaluateTimed grades those.
//
// Sources that are Byzantine are two-faced: they send TwoFacedPayload on
// odd-numbered directed cycles. Copies relayed through Corrupt or
// Byzantine nodes are corrupted (with valid=false in signed mode, since
// the relay cannot forge the source's MAC); copies through Crash nodes or
// broken links are lost.
func EvaluateIHC(x *core.IHC, plan *fault.TemporalPlan, signed bool, kr *Keyring) (Outcome, error) {
	if err := plan.ValidateStatic(x.Graph()); err != nil {
		return Outcome{}, fmt.Errorf("reliable: EvaluateIHC: %w", err)
	}
	t := newTally(nodeKinds(x.N(), plan))
	for j := 0; j < x.Gamma(); j++ {
		c := x.DirectedCycle(j)
		for p := range c {
			route := routeOf(c, p)
			fates := plan.TraceRoute(route, j)
			for k := 1; k < len(route); k++ {
				if fates[k] != fault.Lost {
					t.add(route[k], route[0], j, fates[k] == fault.Corrupted)
				}
			}
		}
	}
	out, err := t.grade(signed, kr)
	if err != nil {
		return Outcome{}, fmt.Errorf("reliable: EvaluateIHC: %w", err)
	}
	return out, nil
}

// tally counts, per (receiver, source) pair, the copies a run delivered
// of each of the four kinds a source's copy can take: its payload (the
// truth, or for a Byzantine source the two-faced alternative on odd
// channels), intact or corrupted. A vote needs only these counts, not
// the copies' order, so every grader fills a tally as copies arrive.
// As the engine graders' simnet.Observer it skips NAKs (negative Seq)
// and counts a retransmitted copy as a genuine one.
type tally struct {
	kind   []fault.Kind // the plan's fault per node; non-Healthy nodes are not graded
	counts [][4]int32   // [recv·N+src][payload kind·2 + corrupted]
}

func newTally(kind []fault.Kind) *tally {
	return &tally{kind: kind, counts: make([][4]int32, len(kind)*len(kind))}
}

// nodeKinds returns each of n nodes' kind in plan: every node the plan
// names keeps its kind whatever its activation time, so the graders
// exclude it from the graded pairs.
func nodeKinds(n int, plan *fault.TemporalPlan) []fault.Kind {
	kind := make([]fault.Kind, n)
	if plan != nil {
		for _, nf := range plan.Nodes {
			kind[nf.Node] = nf.Kind
		}
	}
	return kind
}

// add counts one copy from src delivered to recv on channel.
func (t *tally) add(recv, src topology.Node, channel int, corrupted bool) {
	k := 0
	if t.kind[src] == fault.Byzantine && channel%2 == 1 {
		k = 2
	}
	if corrupted {
		k++
	}
	t.counts[int(recv)*len(t.kind)+int(src)][k]++
}

// OnHop implements simnet.Observer; the grade needs no hops.
func (t *tally) OnHop(simnet.HopEvent) {}

// OnDeliver implements simnet.Observer.
func (t *tally) OnDeliver(d simnet.Delivery) {
	if d.ID.Seq >= 0 {
		t.add(d.Node, d.ID.Source, d.ID.Channel, d.Corrupted)
	}
}

// grade applies the selected voter at every fault-free receiver for
// every fault-free source and tallies the outcomes against the truth.
// Each source's kinds of copy are built once; in signed mode with a
// keyring each of its payloads round-trips through real MACs, to
// exercise the crypto path rather than trust a flag, which fails for a
// keyring sized for a smaller graph. A pair's counts
// expand into one reused buffer, so the voters see the pair's copies as
// a multiset, which is all they decide by.
func (t *tally) grade(signed bool, kr *Keyring) (Outcome, error) {
	n := len(t.kind)
	kinds := make([][4]Copy, n)
	for s := range kinds {
		v := topology.Node(s)
		pays := [2][]byte{TruthPayload(v)}
		if t.kind[s] == fault.Byzantine {
			pays[1] = TwoFacedPayload(v)
		}
		for i, p := range pays {
			if p == nil {
				continue
			}
			valid := true
			if signed && kr != nil {
				msg, err := kr.Sign(Message{Source: v, Payload: p})
				if err == nil {
					valid, err = kr.Verify(msg)
				}
				if err != nil {
					return Outcome{}, err
				}
			}
			// A corrupting relay cannot forge the source MAC.
			kinds[s][2*i] = Copy{Payload: p, Valid: valid}
			kinds[s][2*i+1] = Copy{Payload: CorruptPayload(p)}
		}
	}
	vote := VoteUnsigned
	if signed {
		vote = VoteSigned
	}
	var out Outcome
	var buf []Copy
	for r := 0; r < n; r++ {
		if t.kind[r] != fault.Healthy {
			continue
		}
		for s := 0; s < n; s++ {
			if r == s || t.kind[s] != fault.Healthy {
				continue
			}
			buf = buf[:0]
			for k, c := range t.counts[r*n+s] {
				for ; c > 0; c-- {
					buf = append(buf, kinds[s][k])
				}
			}
			payload, ok := vote(buf)
			out.Pairs++
			switch {
			case !ok:
				out.Missing++
			case string(payload) == string(kinds[s][0].Payload):
				out.Correct++
			default:
				out.Wrong++
			}
		}
	}
	return out, nil
}

// routeOf returns the IHC packet route for the node at position p of
// directed cycle c: from c[p] around to its predecessor.
func routeOf(c []topology.Node, p int) []topology.Node {
	n := len(c)
	route := make([]topology.Node, n)
	for i := 0; i < n; i++ {
		route[i] = c[(p+i)%n]
	}
	return route
}

// BlockablePair reports whether the static fault plan's faulty nodes cut
// every directed-cycle path from src to recv — the structural condition
// for delivery failure between a fault-free pair under crash faults. A
// plan with a timed entry is an error, as in EvaluateIHC.
func BlockablePair(x *core.IHC, plan *fault.TemporalPlan, src, recv topology.Node) (bool, error) {
	if err := plan.ValidateStatic(x.Graph()); err != nil {
		return false, fmt.Errorf("reliable: BlockablePair: %w", err)
	}
	kind := nodeKinds(x.N(), plan)
	for j := 0; j < x.Gamma(); j++ {
		c := x.DirectedCycle(j)
		pos := x.ID(j, src)
		route := routeOf(c, pos)
		clean := true
		for k := 1; k < len(route); k++ {
			if route[k] == recv {
				break
			}
			if kind[route[k]] != fault.Healthy {
				clean = false
				break
			}
		}
		if clean {
			return false, nil
		}
	}
	return true, nil
}
