package stream

import (
	"bytes"
	"context"
	"testing"
	"time"
	"unsafe"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/hlc"
	"ihc/internal/reliable"
	"ihc/internal/repair"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// memEndpoint is an in-memory Endpoint: it records every frame sent
// and surfaces whatever bodies the test queues on recv.
type memEndpoint struct {
	self topology.Node
	sent []sentFrame
	recv chan []byte
}

type sentFrame struct {
	to topology.Node
	f  transport.Frame
}

func (e *memEndpoint) Self() topology.Node { return e.self }
func (e *memEndpoint) Send(to topology.Node, f *transport.Frame) error {
	e.sent = append(e.sent, sentFrame{to, *f})
	return nil
}
func (e *memEndpoint) Recv() <-chan []byte            { return e.recv }
func (e *memEndpoint) PeerDown(topology.Node) bool    { return false }
func (e *memEndpoint) Stats() transport.EndpointStats { return transport.EndpointStats{} }
func (e *memEndpoint) Close() error                   { return nil }

// testNode builds node 0 of a Q4 stream (γ = 4) on an in-memory endpoint.
// Epoch 0 is scheduled an hour out, so only the frames a test hands
// to handle open it.
func testNode(t *testing.T, clock *hlc.Clock) (*Node, *memEndpoint, *reliable.Keyring) {
	t.Helper()
	g := topology.MustHypercube(4)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	ep := &memEndpoint{self: 0, recv: make(chan []byte, 1)}
	kr := reliable.NewKeyring(x.N(), 3)
	nd, err := NewNode(Config{
		IHC: x, Eta: 2, Self: 0, Endpoint: ep, Keyring: kr,
		Epoch0: time.Now().Add(time.Hour), Period: time.Second, StageDur: 50 * time.Millisecond,
		HopLatency: time.Millisecond, Payload: func(uint32) []byte { return []byte("own batch") },
		Clock: clock, CollectPayloads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd, ep, kr
}

// copyBody encodes source s's signed channel-j copy of epoch 0 as the
// node's cycle-j predecessor relays it to the node.
func copyBody(t *testing.T, nd *Node, kr *reliable.Keyring, s topology.Node, j int, payload []byte, ts hlc.Timestamp) []byte {
	t.Helper()
	route := nd.routeOf(s, j)
	hop := 0
	for i, v := range route {
		if v == nd.cfg.Self {
			hop = i - 1
		}
	}
	f := &transport.Frame{
		Kind: transport.FrameData, From: route[hop], Source: s, Channel: uint8(j),
		Stage: uint8(nd.stageOf(s, j)), Hop: uint16(hop), HLC: ts, Route: route,
		Payload: append([]byte(nil), payload...),
	}
	if err := transport.SignFrame(kr, f); err != nil {
		t.Fatal(err)
	}
	body, err := transport.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStoreSharesOneCopyPerSource checks that a source's γ identical
// copies, each arriving in its own body, are stored as one slice.
func TestStoreSharesOneCopyPerSource(t *testing.T) {
	nd, _, kr := testNode(t, nil)
	const src = 5
	batch := bytes.Repeat([]byte("batch"), 100)
	for j := 0; j < nd.gamma; j++ {
		nd.handle(copyBody(t, nd, kr, src, j, batch, hlc.Timestamp{}))
	}
	st := nd.open[0]
	if st == nil {
		t.Fatal("epoch 0 not opened by its copies")
	}
	first := st.store[nd.slot(repair.Want{Source: src})]
	for j := 0; j < nd.gamma; j++ {
		got := st.store[nd.slot(repair.Want{Source: src, Channel: uint8(j)})]
		if !bytes.Equal(got, batch) {
			t.Fatalf("channel %d stored %d bytes, want the batch", j, len(got))
		}
		if unsafe.SliceData(got) != unsafe.SliceData(first) {
			t.Errorf("channel %d holds its own copy of an identical payload", j)
		}
	}
}

// TestStoreTwoFacedSource feeds a full epoch in which one source signs
// different payloads on different channels. Each channel's bytes must
// survive deduplication: in the collected payloads and in the REPAIRs
// served from the retained epoch.
func TestStoreTwoFacedSource(t *testing.T) {
	nd, ep, kr := testNode(t, nil)
	const liar = 5
	faces := func(j int) []byte {
		if j == 1 {
			return []byte("face B")
		}
		return []byte("face A")
	}
	for s := 1; s < nd.n; s++ {
		for j := 0; j < nd.gamma; j++ {
			p := reliable.TruthPayload(topology.Node(s))
			if s == liar {
				p = faces(j)
			}
			nd.handle(copyBody(t, nd, kr, topology.Node(s), j, p, hlc.Timestamp{}))
		}
	}
	if len(nd.results) != 1 || !nd.results[0].Completed {
		t.Fatalf("epoch 0 did not complete: %+v", nd.results)
	}
	res := nd.results[0]
	if res.LedgerErr != nil {
		t.Fatal(res.LedgerErr)
	}
	st := nd.retained[0]
	if st == nil {
		t.Fatal("closed epoch not retained")
	}
	a := unsafe.SliceData(st[nd.slot(repair.Want{Source: liar, Channel: 0})])
	if c := unsafe.SliceData(st[nd.slot(repair.Want{Source: liar, Channel: 2})]); c != a {
		t.Error("the liar's two equal faces are stored twice")
	}
	requester := nd.neighbors[0]
	for j := 0; j < nd.gamma; j++ {
		w := repair.Want{Source: liar, Channel: uint8(j)}
		if got := res.Payloads[w]; !bytes.Equal(got, faces(j)) {
			t.Errorf("collected channel %d: %q, want %q", j, got, faces(j))
		}
		ep.sent = nil
		nak := &transport.Frame{Kind: transport.FrameNak, From: requester, Source: liar, Channel: uint8(j)}
		body, err := transport.EncodeFrame(nak)
		if err != nil {
			t.Fatal(err)
		}
		nd.handle(body)
		if len(ep.sent) != 1 || ep.sent[0].to != requester || ep.sent[0].f.Kind != transport.FrameRepair {
			t.Fatalf("NAK for channel %d answered with %+v", j, ep.sent)
		}
		rep := ep.sent[0].f
		if !bytes.Equal(rep.Payload, faces(j)) {
			t.Errorf("repaired channel %d: %q, want %q", j, rep.Payload, faces(j))
		}
		if ok, err := transport.VerifyFrame(kr, &rep); !ok || err != nil {
			t.Errorf("repaired channel %d does not verify: ok=%v err=%v", j, ok, err)
		}
	}
}

// TestHLCMergesOnlyVerifiedFrames: a frame dropped for a bad MAC must
// not move the clock, in Run's handler or in Serve; a valid one must.
func TestHLCMergesOnlyVerifiedFrames(t *testing.T) {
	const physical = int64(1_000)
	future := hlc.Timestamp{Wall: time.Now().Add(time.Hour).UnixNano()}
	for _, via := range []string{"handle", "Serve"} {
		for _, valid := range []bool{false, true} {
			clock := hlc.NewAt(func() int64 { return physical })
			nd, ep, kr := testNode(t, clock)
			body := copyBody(t, nd, kr, 5, 0, []byte("batch"), future)
			if !valid {
				body[len(body)-1] ^= 0xFF // last MAC byte
			}
			if via == "handle" {
				nd.handle(body)
			} else {
				ep.recv <- body
				close(ep.recv)
				nd.Serve(context.Background())
			}
			got := clock.Last()
			if valid && got.Wall != future.Wall {
				t.Errorf("%s: valid frame left the clock at %+v, want wall %d", via, got, future.Wall)
			}
			if !valid && got != (hlc.Timestamp{}) {
				t.Errorf("%s: frame with a bad MAC moved the clock to %+v", via, got)
			}
		}
	}
}
