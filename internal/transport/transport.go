// Package transport is the wire layer that lifts the IHC broadcast off
// the discrete-event simulator and onto a real message-passing mesh:
// frames, endpoints and retry. It defines the Endpoint abstraction the
// protocol node (internal/stream), the cluster harness and the ihcd
// daemon are written against, with two implementations:
//
//   - Loopback: an in-process test double. Every frame in flight waits
//     in one delivery queue, ordered by release time, for a fixed
//     per-hop latency; one goroutine drains it into the inboxes. So
//     protocol logic can be driven — and chaos-tested — without
//     sockets, under the per-link FIFO and adjacency discipline a
//     store-and-forward mesh has.
//   - TCP (tcpmesh.go): every node is a real process or goroutine
//     cluster exchanging length-prefixed, HMAC-signed frames over TCP
//     along the mesh's links, with per-peer reconnecting connections,
//     jittered exponential dial backoff, and circuit breakers.
//
// Both implementations expose the same Endpoint surface: adjacency-
// checked Send of an encoded Frame, a raw inbound frame stream, and
// counters. The chaos layer (internal/chaos) interposes on links of
// either implementation — as a frame filter on Loopback, as a real
// socket-level proxy per directed link on TCP.
package transport

import (
	"fmt"
	"time"

	"ihc/internal/topology"
)

// queueLen bounds every queue an endpoint keeps: the frames in flight
// on each loopback link, each loopback inbox, and each TCP peer's
// outbound queue and TCP inbox. A frame that finds its queue full is
// dropped and counted.
const queueLen = 1024

// Endpoint is one node's attachment to a mesh. Send is adjacency-
// checked: a node may talk only to its graph neighbors, exactly like a
// physical router. Frames may be lost (queue overflow, peer down, chaos
// interference) — delivery is at-most-once per send, and the repair
// layer above is what turns that into reliable broadcast.
type Endpoint interface {
	// Send encodes f and queues it toward the adjacent node `to`.
	// It never blocks: a full queue or an open circuit breaker drops
	// the frame and returns an error.
	Send(to topology.Node, f *Frame) error
	// Recv is the stream of raw inbound frame bodies (decode with
	// DecodeFrame). The channel closes when the endpoint closes.
	Recv() <-chan []byte
	// PeerDown reports whether the path to an adjacent peer is
	// currently considered dead (circuit breaker open). Planners use
	// it to rotate repair providers away from crashed peers.
	PeerDown(to topology.Node) bool
	// Stats returns a snapshot of the endpoint's counters.
	Stats() EndpointStats
	// Close releases the endpoint; further Sends fail.
	Close() error
}

// EndpointStats counts what an endpoint observed. All fields are
// monotonic totals.
type EndpointStats struct {
	Sent       int64 // frames handed to the link layer
	Received   int64 // frame bodies surfaced on Recv
	SendErrors int64 // frames rejected at Send (peer down, queue full, closed)
	DroppedRx  int64 // inbound frames dropped on a full Recv queue
	Reconnects int64 // successful re-dials after a connection was lost (TCP)
	DialFails  int64 // failed dial attempts (TCP)
}

// FilterAction is a chaos filter's verdict for one frame on one
// directed link.
type FilterAction struct {
	Drop      bool          // lose the frame
	Corrupt   bool          // flip a byte of the frame body
	Duplicate bool          // deliver the frame twice
	Delay     time.Duration // hold the frame before delivery
}

// LinkFilter interposes on every frame crossing a directed link; the
// chaos plan implements it. now is the wall-clock offset from the
// mesh's epoch.
type LinkFilter interface {
	Filter(from, to topology.Node, now time.Duration) FilterAction
}

// ErrPeerDown reports a send refused because the peer's circuit breaker
// is open.
type PeerDownError struct{ Peer topology.Node }

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %d down (circuit breaker open)", e.Peer)
}

// adjacency returns an error unless {from,to} is an edge of g.
func adjacency(g *topology.Graph, from, to topology.Node) error {
	if !g.HasEdge(from, to) {
		return notLink(g, from, to)
	}
	return nil
}

// notLink is the error for a send on a pair that is not a link of g.
func notLink(g *topology.Graph, from, to topology.Node) error {
	return fmt.Errorf("transport: %d->%d is not a link of %s", from, to, g.Name())
}
