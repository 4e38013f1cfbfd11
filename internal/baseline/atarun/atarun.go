// Package atarun provides the shared execution harness for the
// "serialized" ATA reliable broadcast baselines of Section V: VRS-ATA,
// KS-ATA and VSQ-ATA all execute one node's reliable broadcast at a time,
// with node b+1's broadcast starting when node b's finishes. Each
// baseline supplies a generator producing the packet schedule of a single
// broadcast; this package chains N such broadcasts on one simulated
// network and aggregates the results.
package atarun

import (
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Generator produces the packet schedule for one source's reliable
// broadcast, injected at the given start time. seq tags the packets'
// sequence number so packet IDs stay unique across broadcasts.
type Generator func(src topology.Node, start simnet.Time, seq int) []simnet.PacketSpec

// Result aggregates a full serialized ATA broadcast: the simulator's
// counters summed over the N broadcasts, and when each finished.
type Result struct {
	simnet.Result
	BroadcastFinish []simnet.Time // completion time of each node's broadcast
}

// Sequential runs gen(src) for every node of g in turn on a single fresh
// network with parameters p. Every broadcast runs with opts, so its sinks
// (a copy matrix, a delivery log, a ledger, an observer) accumulate the
// whole ATA.
func Sequential(g *topology.Graph, p simnet.Params, gen Generator, opts simnet.Options) (*Result, error) {
	net, err := simnet.New(g, p)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	start := simnet.Time(0)
	for src := 0; src < g.N(); src++ {
		r, err := net.Run(gen(topology.Node(src), start, src), opts)
		if err != nil {
			return nil, err
		}
		res.Merge(r)
		res.BroadcastFinish = append(res.BroadcastFinish, r.Finish)
		start = r.Finish
	}
	return res, nil
}
