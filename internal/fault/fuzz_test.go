package fault

import (
	"testing"

	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// planFromRaw deterministically decodes fuzzer bytes into a TemporalPlan
// with deliberately out-of-range candidates: node ids and link endpoints
// span beyond the graph, activation times and windows can be negative,
// empty, inverted, or Forever. Validate must classify, never panic.
func planFromRaw(raw []byte) *TemporalPlan {
	tp := &TemporalPlan{}
	i := 0
	next := func() int64 {
		if i >= len(raw) {
			return 0
		}
		b := raw[i]
		i++
		return int64(b) - 64 // negative values included
	}
	nNodes := int(next()) & 7
	for k := 0; k < nNodes; k++ {
		tp.Nodes = append(tp.Nodes, NodeFault{
			Node: topology.Node(next()),
			Kind: Kind(next() & 3),
			At:   simnet.Time(next() * 1000),
		})
	}
	nLinks := int(next()) & 7
	for k := 0; k < nLinks; k++ {
		until := simnet.Time(next() * 1000)
		if until > 100_000 {
			until = Forever
		}
		tp.Links = append(tp.Links, LinkFault{
			U:       topology.Node(next()),
			V:       topology.Node(next()),
			From:    simnet.Time(next() * 1000),
			Until:   until,
			Corrupt: next()&1 == 0,
		})
	}
	tp.Seed = next()
	return tp
}

// FuzzTemporalPlan: Validate, ValidateStatic and Compile on arbitrary
// plans never panic or index out of bounds, they agree (Compile errors
// exactly when Validate does, and a static plan is a valid one), and a
// successfully compiled injector answers Relay for every in-graph arc
// and a sweep of times without panicking, its link-only verdict equal
// to Relay's at hop 0, where node faults do not act.
func FuzzTemporalPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 64, 65, 66, 70, 1, 80, 3, 64, 65, 66, 67, 68})
	f.Add([]byte{1, 255, 0, 0, 1, 255, 255, 0, 0, 0})
	f.Add([]byte{7, 64, 64, 64, 65, 64, 64, 66, 64, 64, 67, 64, 64})
	g := topology.MustSquareTorus(3)
	f.Fuzz(func(t *testing.T, raw []byte) {
		tp := planFromRaw(raw)
		verr := tp.Validate(g)
		inj, cerr := tp.Compile(g)
		if (verr == nil) != (cerr == nil) {
			t.Fatalf("Validate err=%v but Compile err=%v", verr, cerr)
		}
		if serr := tp.ValidateStatic(g); serr == nil && verr != nil {
			t.Fatalf("ValidateStatic accepted a plan Validate rejects: %v", verr)
		}
		if cerr != nil {
			return
		}
		id := simnet.PacketID{Source: 0, Channel: 1, Seq: 2}
		for _, e := range g.Edges() {
			for _, at := range []simnet.Time{0, 1, 999, 100_000, Forever - 1} {
				inj.Relay(id, 1, e.U, e.V, at)
				if got, want := inj.Link(e.V, e.U, at), inj.Relay(id, 0, e.V, e.U, at); got != want {
					t.Fatalf("Link %d→%d at %d = %v, Relay at hop 0 = %v", e.V, e.U, at, got, want)
				}
			}
		}
	})
}
