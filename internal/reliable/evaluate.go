package reliable

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
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
// correctness) under the given fault plan, applies the selected voter at
// every fault-free receiver, and grades the result against the truth.
//
// Sources that are Byzantine are two-faced: they send TwoFacedPayload on
// odd-numbered directed cycles. Copies relayed through Corrupt or
// Byzantine nodes are corrupted (with valid=false in signed mode, since
// the relay cannot forge the source's MAC); copies through Crash nodes or
// broken links are lost.
func EvaluateIHC(x *core.IHC, plan *fault.Plan, signed bool, kr *Keyring) (Outcome, error) {
	// A plan naming nonexistent nodes or links would grade as vacuously
	// healthy (no route ever meets the phantom fault); that's a caller
	// bug, so it is reported rather than silently graded.
	if err := plan.Validate(x.Graph()); err != nil {
		return Outcome{}, fmt.Errorf("reliable: EvaluateIHC: %w", err)
	}
	n := x.N()
	gamma := x.Gamma()
	// copies[recv][src] collects the copies each receiver got.
	copies := make([][][]Copy, n)
	for r := range copies {
		copies[r] = make([][]Copy, n)
	}
	for j := 0; j < gamma; j++ {
		c := x.DirectedCycle(j)
		for p := 0; p < len(c); p++ {
			src := c[p]
			payload := TruthPayload(src)
			if plan.Node(src) == fault.Byzantine && j%2 == 1 {
				payload = TwoFacedPayload(src)
			}
			route := routeOf(c, p)
			fates := plan.TraceRoute(route, j)
			for k := 1; k < len(route); k++ {
				recv := route[k]
				var cp Copy
				switch fates[k] {
				case fault.Lost:
					continue
				case fault.Intact:
					cp = Copy{Payload: payload, Valid: true}
				case fault.Corrupted:
					// A corrupting relay cannot forge the source MAC.
					cp = Copy{Payload: CorruptPayload(payload), Valid: false}
				}
				if signed && kr != nil && cp.Valid {
					// Round-trip through real MACs to exercise the crypto
					// path rather than trusting the Valid flag. Sources come
					// from the cycle, so they are always keyed; an error here
					// means the keyring is sized for a different graph.
					msg, err := kr.Sign(Message{Source: src, Payload: cp.Payload})
					if err == nil {
						cp.Valid, err = kr.Verify(msg)
					}
					if err != nil {
						return Outcome{}, fmt.Errorf("reliable: EvaluateIHC: %w", err)
					}
				}
				copies[recv][src] = append(copies[recv][src], cp)
			}
		}
	}

	return gradeCopies(n, copies, signed, func(v topology.Node) bool {
		return plan.Node(v) != fault.Healthy
	}), nil
}

// gradeCopies applies the selected voter at every fault-free receiver for
// every fault-free source and tallies the outcomes against the truth —
// the shared back half of the combinatorial and timed evaluators.
func gradeCopies(n int, copies [][][]Copy, signed bool, faulty func(topology.Node) bool) Outcome {
	var out Outcome
	truth := truthPayloads(n)
	for r := 0; r < n; r++ {
		if faulty(topology.Node(r)) {
			continue
		}
		for s := 0; s < n; s++ {
			if r == s || faulty(topology.Node(s)) {
				continue
			}
			out.Pairs++
			var payload []byte
			var ok bool
			if signed {
				payload, ok = VoteSigned(copies[r][s])
			} else {
				payload, ok = VoteUnsigned(copies[r][s])
			}
			switch {
			case !ok:
				out.Missing++
			case string(payload) == string(truth[s]):
				out.Correct++
			default:
				out.Wrong++
			}
		}
	}
	return out
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

// BlockablePair reports whether the fault plan's faulty nodes cut every
// directed-cycle path from src to recv — the structural condition for
// delivery failure between a fault-free pair under crash faults.
func BlockablePair(x *core.IHC, plan *fault.Plan, src, recv topology.Node) bool {
	for j := 0; j < x.Gamma(); j++ {
		c := x.DirectedCycle(j)
		pos := x.ID(j, src)
		route := routeOf(c, pos)
		clean := true
		for k := 1; k < len(route); k++ {
			if route[k] == recv {
				break
			}
			if plan.Node(route[k]) != fault.Healthy {
				clean = false
				break
			}
		}
		if clean {
			return false
		}
	}
	return true
}
