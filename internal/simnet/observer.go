package simnet

import "ihc/internal/topology"

// HopEvent is one performed hop as seen by an Observer: the packet
// acquired the directed link From→To (dense arc id Arc) at HeaderDepart
// and its tail fully arrives at To at TailArrive. Hops canceled by a
// fault hook (FaultDrop) are never observed, and a blocked virtual
// cut-through attempt that falls back to buffering is observed once,
// when the buffered send finally departs — the same convention as
// FaultHook.Relay. HopEvent is the engine's only per-hop record.
type HopEvent struct {
	ID           PacketID
	Hop          int // index of From along the packet's route (0 = source injection)
	From, To     topology.Node
	Arc          int // dense arc id of From→To (position in Graph().Arcs())
	Kind         HopKind
	HeaderDepart Time // when the header left From
	TailArrive   Time // when the tail fully arrived at To
	Flits        int  // effective packet length (PacketSpec.Flits, or the network μ)
	Blocked      bool // transmitter (or background traffic) was busy
}

// Observer receives the engine's per-hop and per-delivery stream. It is
// the observability counterpart of FaultHook: a nil Options.Observe
// costs one predictable branch per event on the hot path, so runs with
// observation off keep the engine's allocation-free event loop and
// byte-identical results. Callbacks run synchronously inside the event
// loop in the engine's deterministic (time, seq) order; they must not
// retain the HopEvent beyond the call only if they copy it (it is
// passed by value, so plain field reads are always safe), and must not
// call back into the Network being simulated.
//
// See internal/observe for the standard sinks: a mergeable metrics
// aggregator, live theorem oracles, and JSONL/Chrome-trace exporters.
type Observer interface {
	// OnHop is called once per performed hop, after the hop's link is
	// acquired and before any deliveries the hop causes.
	OnHop(HopEvent)
	// OnDeliver is called once per delivered copy (tee and final),
	// immediately after the delivery is accounted.
	OnDeliver(Delivery)
}
