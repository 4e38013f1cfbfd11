package transport

import (
	"testing"
	"time"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/hlc"
	"ihc/internal/reliable"
	"ihc/internal/topology"
)

// sinkEndpoint is an Endpoint that discards what it is sent.
type sinkEndpoint struct{ self topology.Node }

func (e sinkEndpoint) Self() topology.Node              { return e.self }
func (e sinkEndpoint) Send(topology.Node, *Frame) error { return nil }
func (e sinkEndpoint) Recv() <-chan []byte              { return nil }
func (e sinkEndpoint) PeerDown(topology.Node) bool      { return false }
func (e sinkEndpoint) Stats() EndpointStats             { return EndpointStats{} }
func (e sinkEndpoint) Close() error                     { return nil }

// TestNodeHLCMergesOnlyVerifiedFrames: a frame the node drops for a
// bad MAC must not move its clock; a valid one must.
func TestNodeHLCMergesOnlyVerifiedFrames(t *testing.T) {
	g := topology.MustHypercube(3)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	kr := reliable.NewKeyring(x.N(), 3)
	future := hlc.Timestamp{Wall: time.Now().Add(time.Hour).UnixNano()}
	for _, valid := range []bool{false, true} {
		clock := hlc.NewAt(func() int64 { return 1_000 })
		nd, err := NewNode(NodeConfig{
			IHC: x, Eta: 2, Self: 0, Endpoint: sinkEndpoint{0}, Keyring: kr,
			Epoch: time.Now().Add(time.Hour), StageDur: 50 * time.Millisecond, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := &Frame{Kind: FrameData, From: 1, Source: 1, HLC: future, Route: nd.routeOf(1, 0), Payload: []byte("p")}
		if err := SignFrame(kr, f); err != nil {
			t.Fatal(err)
		}
		body, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if !valid {
			body[len(body)-1] ^= 0xFF // last MAC byte
		}
		nd.handle(body)
		got := clock.Last()
		if valid && got.Wall != future.Wall {
			t.Errorf("valid frame left the clock at %+v, want wall %d", got, future.Wall)
		}
		if !valid && got != (hlc.Timestamp{}) {
			t.Errorf("frame with a bad MAC moved the clock to %+v", got)
		}
	}
}
