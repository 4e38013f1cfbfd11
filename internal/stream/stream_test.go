package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/hlc"
	"ihc/internal/reliable"
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

// q4 is the IHC schedule of Q4 (N = 16, γ = 4).
func q4(t testing.TB) *core.IHC {
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
	return x
}

// testNode builds node 0 of a Q4 stream on an in-memory endpoint.
// Epoch 0 is scheduled an hour out, so only the frames a test hands
// to handle, or a step at its scheduled time, open it.
func testNode(t *testing.T, clock *hlc.Clock) (*Node, *memEndpoint, *reliable.Keyring) {
	t.Helper()
	x := q4(t)
	kr := reliable.NewKeyring(x.N(), 3)
	nd, ep := nodeOn(t, x, kr, time.Now().Add(time.Hour), clock)
	return nd, ep, kr
}

// nodeOn builds node 0 of x's stream on an in-memory endpoint, with
// epoch 0 scheduled at epoch0.
func nodeOn(t testing.TB, x *core.IHC, kr *reliable.Keyring, epoch0 time.Time, clock *hlc.Clock) (*Node, *memEndpoint) {
	t.Helper()
	ep := &memEndpoint{self: 0, recv: make(chan []byte, 1)}
	nd, err := NewNode(Config{
		IHC: x, Eta: 2, Self: 0, Endpoint: ep, Keyring: kr,
		Epoch0: epoch0, Period: time.Second, StageDur: 50 * time.Millisecond,
		HopLatency: time.Millisecond, Payload: func(uint32) []byte { return []byte("own batch") },
		Clock: clock, CollectPayloads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd, ep
}

// TestNewNodeDefaults builds a node from its schedule and identity
// alone and checks that it runs the documented default timing: epochs
// 4·50ms apart, each copy pulled once its 50ms stage start plus 1ms per
// hop plus a 50ms slack has passed, and pulled again at most 10ms
// (the pull profile's Base) later, up to 60 pulls per copy; 64 retained
// epochs and a 5s drain.
func TestNewNodeDefaults(t *testing.T) {
	x := q4(t)
	epoch0 := time.Now().Add(time.Hour)
	nd, err := NewNode(Config{
		IHC: x, Eta: 2, Self: 0, Endpoint: &memEndpoint{recv: make(chan []byte, 1)},
		Keyring: reliable.NewKeyring(x.N(), 3), Epoch0: epoch0,
	})
	if err != nil {
		t.Fatal(err)
	}
	const stage, hop = 50 * time.Millisecond, time.Millisecond
	if got := nd.scheduled(1).Sub(nd.scheduled(0)); got != 4*stage {
		t.Errorf("epochs %s apart, want %s", got, 4*stage)
	}
	if c := nd.cfg; c.Retain != 64 || c.Drain != 5*time.Second {
		t.Errorf("Retain %d, Drain %s; want 64, 5s", c.Retain, c.Drain)
	}
	nd.step(epoch0)
	st := nd.open[0]
	var first time.Time
	for j := 0; j < nd.gamma; j++ {
		for s := 1; s < nd.n; s++ {
			src := topology.Node(s)
			due := epoch0.Add(time.Duration(nd.stageOf(src, j))*stage + time.Duration(nd.hops(0, src, j))*hop + stage)
			if first.IsZero() || due.Before(first) {
				first = due
			}
		}
	}
	if got, ok := st.planner.nextWake(); !ok || !got.Equal(first) {
		t.Errorf("first pull due %s after epoch 0 opens, want %s", got.Sub(epoch0), first.Sub(epoch0))
	}
	pulls := st.planner.due(first, nil)
	if len(pulls) == 0 {
		t.Fatal("no pull due at the first deadline")
	}
	if retry := st.planner.slots[pulls[0].slot].nextAt; retry.After(first.Add(10 * time.Millisecond)) {
		t.Errorf("first retry due %s after the first pull, want at most 10ms", retry.Sub(first))
	}
	if st.planner.maxAttempts != 60 {
		t.Errorf("%d pulls per copy, want 60", st.planner.maxAttempts)
	}
}

// TestNewNodeRejectsNegative checks that only a zero setting takes the
// default: a negative StageDur or retry Base is an error, not a quiet
// 50ms stage or 10ms retry.
func TestNewNodeRejectsNegative(t *testing.T) {
	x := q4(t)
	base := Config{
		IHC: x, Eta: 2, Self: 0, Endpoint: &memEndpoint{recv: make(chan []byte, 1)},
		Keyring: reliable.NewKeyring(x.N(), 3), Epoch0: time.Now().Add(time.Hour),
	}
	stage := base
	stage.StageDur = -50 * time.Millisecond
	retry := base
	retry.Retry.Base = -time.Millisecond
	for name, cfg := range map[string]Config{"StageDur": stage, "Retry.Base": retry} {
		if _, err := NewNode(cfg); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
}

// TestEachCopyRetriesOnItsOwnCount opens one catch-up epoch on the
// in-memory endpoint with every copy missing and drives step with a
// synthetic clock. The first step NAKs every copy; each copy has been
// pulled once, so each one's second NAK must be due within the retry
// profile's Base, whatever the epoch's other copies have drawn.
func TestEachCopyRetriesOnItsOwnCount(t *testing.T) {
	nd, ep, _ := testNode(t, nil)
	t0 := nd.scheduled(0)
	nd.adoptEpoch(0, t0)
	missing := (nd.n - 1) * nd.gamma
	naks := func(now time.Time) map[int]int {
		ep.sent = nil
		nd.step(now)
		out := map[int]int{}
		for _, sf := range ep.sent {
			if sf.f.Kind == transport.FrameNak {
				out[nd.slot(sf.f.Source, sf.f.Channel)]++
			}
		}
		return out
	}
	if first := naks(t0); len(first) != missing {
		t.Fatalf("first step NAKed %d copies, want all %d", len(first), missing)
	}
	if second := naks(t0.Add(nd.cfg.Retry.Base)); len(second) != missing {
		t.Fatalf("%d of %d copies NAKed again within Base (%s) of their first NAK", len(second), missing, nd.cfg.Retry.Base)
	}
}

// copyFrame is source s's channel-j copy of epoch 0 as the node's
// cycle-j predecessor relays it to the node, not yet signed.
func copyFrame(nd *Node, s topology.Node, j int, payload []byte, ts hlc.Timestamp) *transport.Frame {
	pred := nd.pred[j]
	return &transport.Frame{
		Kind: transport.FrameData, From: pred, Source: s, Channel: uint8(j),
		Stage: uint8(nd.stageOf(s, j)), Hop: uint16(nd.hops(pred, s, j)), HLC: ts,
		Payload: append([]byte(nil), payload...),
	}
}

// encode signs f (when its kind is signed) and encodes it.
func encode(t *testing.T, kr *reliable.Keyring, f *transport.Frame) []byte {
	t.Helper()
	if f.Kind.Signed() {
		if err := transport.SignFrame(kr, f); err != nil {
			t.Fatal(err)
		}
	}
	body, err := transport.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// copyBody encodes copyFrame's copy, signed.
func copyBody(t *testing.T, nd *Node, kr *reliable.Keyring, s topology.Node, j int, payload []byte, ts hlc.Timestamp) []byte {
	t.Helper()
	return encode(t, kr, copyFrame(nd, s, j, payload, ts))
}

// TestStoreSharesOneCopyPerSource checks that a source's γ identical
// copies, each arriving in its own body, are stored as one slice.
func TestStoreSharesOneCopyPerSource(t *testing.T) {
	nd, _, kr := testNode(t, nil)
	const src = 5
	batch := bytes.Repeat([]byte("batch"), 100)
	for j := 0; j < nd.gamma; j++ {
		nd.handle(copyBody(t, nd, kr, src, j, batch, hlc.Timestamp{}), nd.scheduled(0))
	}
	st := nd.open[0]
	if st == nil {
		t.Fatal("epoch 0 not opened by its copies")
	}
	first := st.store[nd.slot(src, 0)]
	for j := 0; j < nd.gamma; j++ {
		got := st.store[nd.slot(src, uint8(j))]
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
			nd.handle(copyBody(t, nd, kr, topology.Node(s), j, p, hlc.Timestamp{}), nd.scheduled(0))
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
	a := unsafe.SliceData(st[nd.slot(liar, 0)])
	if c := unsafe.SliceData(st[nd.slot(liar, 2)]); c != a {
		t.Error("the liar's two equal faces are stored twice")
	}
	requester := nd.neighbors[0]
	for j := 0; j < nd.gamma; j++ {
		if got := res.Payloads[nd.slot(liar, uint8(j))]; !bytes.Equal(got, faces(j)) {
			t.Errorf("collected channel %d: %q, want %q", j, got, faces(j))
		}
		ep.sent = nil
		nd.handle(encode(t, kr, &transport.Frame{Kind: transport.FrameNak, From: requester, Source: liar, Channel: uint8(j)}), nd.scheduled(0))
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

// TestHLCMergesOnlyVerifiedFrames: only a signed frame that passes
// verification moves the clock, in Run's handler and in Serve. A frame
// dropped for a bad MAC must not, and neither may an unsigned NAK, MISS
// or JOIN, whose stamp anyone could forge. wall is the clock's wall
// reading afterwards: the frame's stamp, the node's own physical clock
// (it stamped a MISS in reply to the NAK), or zero (nothing happened).
func TestHLCMergesOnlyVerifiedFrames(t *testing.T) {
	const physical = int64(1_000)
	future := hlc.Timestamp{Wall: time.Now().Add(time.Hour).UnixNano()}
	for _, via := range []string{"handle", "Serve"} {
		for _, tc := range []struct {
			name string
			wall int64
			body func(nd *Node, kr *reliable.Keyring) []byte
		}{
			{"DATA", future.Wall, func(nd *Node, kr *reliable.Keyring) []byte {
				return copyBody(t, nd, kr, 5, 0, []byte("batch"), future)
			}},
			{"DATA with a bad MAC", 0, func(nd *Node, kr *reliable.Keyring) []byte {
				body := copyBody(t, nd, kr, 5, 0, []byte("batch"), future)
				body[len(body)-1] ^= 0xFF // last MAC byte
				return body
			}},
			{"NAK", physical, func(nd *Node, kr *reliable.Keyring) []byte {
				return encode(t, kr, &transport.Frame{Kind: transport.FrameNak, From: nd.neighbors[0], Source: 5, HLC: future})
			}},
			{"MISS", 0, func(nd *Node, kr *reliable.Keyring) []byte {
				return encode(t, kr, &transport.Frame{Kind: transport.FrameMiss, From: nd.neighbors[0], Source: 5, HLC: future})
			}},
			{"JOIN", 0, func(nd *Node, kr *reliable.Keyring) []byte {
				return encode(t, kr, &transport.Frame{Kind: transport.FrameJoin, From: nd.neighbors[0], Source: nd.neighbors[0], HLC: future})
			}},
		} {
			clock := hlc.NewAt(func() int64 { return physical })
			nd, ep, kr := testNode(t, clock)
			body := tc.body(nd, kr)
			if via == "handle" {
				nd.handle(body, nd.scheduled(0))
			} else {
				ep.recv <- body
				close(ep.recv)
				nd.Serve(context.Background())
			}
			if got := clock.Last(); got.Wall != tc.wall {
				t.Errorf("%s: %s left the clock at %+v, want wall %d", via, tc.name, got, tc.wall)
			}
		}
	}
}

// TestRelayStaysOnCycle checks that no relay can move a copy off its
// cycle. Node v stores, counts and relays a DATA copy (s, j) only when
// it comes from pred_j(v), whatever Hop and HLC it carries, and sends
// it only to succ_j(v), or nowhere when succ_j(v) is s. A REPAIR, the
// answer to v's own pull, is taken from any neighbor and relayed on to
// succ_j(v) in the same way.
func TestRelayStaysOnCycle(t *testing.T) {
	payload := []byte("batch")
	type check struct {
		nd  *Node
		ep  *memEndpoint
		s   topology.Node
		j   int
		tag string
	}
	// relays returns the frames of copy (s, j) that v has sent.
	relays := func(c check) []sentFrame {
		var out []sentFrame
		for _, sf := range c.ep.sent {
			if sf.f.Source == c.s && int(sf.f.Channel) == c.j {
				out = append(out, sf)
			}
		}
		return out
	}
	// stored returns the channels of source s's copies held in v's
	// epoch-0 store, and how many copies v's planner counted arrived.
	stored := func(nd *Node, s topology.Node) (chans []int, counted int) {
		st := nd.open[0]
		for j := 0; j < nd.gamma; j++ {
			if st.store[nd.slot(s, uint8(j))] != nil {
				chans = append(chans, j)
			}
		}
		return chans, st.planner.expected - st.planner.pending
	}
	// held asserts that v stored and counted copy (s, j) exactly once
	// and relayed it on its cycle and nowhere else.
	held := func(c check) {
		t.Helper()
		nd, v := c.nd, c.nd.cfg.Self
		if chans, counted := stored(nd, c.s); len(chans) != 1 || chans[0] != c.j || counted != 1 {
			t.Errorf("%s: stored channels %v and counted %d copies, want [%d] and 1", c.tag, chans, counted, c.j)
		}
		sent := relays(c)
		if nd.succ[c.j] == c.s {
			if len(sent) != 0 {
				t.Errorf("%s: the last holder relayed the copy: %+v", c.tag, sent)
			}
			return
		}
		if len(sent) != 1 {
			t.Fatalf("%s: relayed %d times, want once", c.tag, len(sent))
		}
		f := sent[0].f
		if sent[0].to != nd.succ[c.j] || f.From != v || int(f.Hop) != nd.hops(v, c.s, c.j) {
			t.Errorf("%s: relayed to %d from %d at hop %d, want to succ %d from %d at hop %d",
				c.tag, sent[0].to, f.From, f.Hop, nd.succ[c.j], v, nd.hops(v, c.s, c.j))
		}
	}
	fresh := func() (*Node, *memEndpoint, *reliable.Keyring) {
		nd, ep, kr := testNode(t, nil)
		nd.step(nd.scheduled(0))
		return nd, ep, kr
	}
	probe, _, _ := testNode(t, nil)
	for j := 0; j < probe.gamma; j++ {
		// A source two hops upstream of v, and v's successor, whose
		// copy's window ends at v.
		cyc := probe.cfg.IHC.DirectedCycle(j)
		upstream := cyc[(probe.cfg.IHC.ID(j, probe.cfg.Self)+probe.n-2)%probe.n]
		for _, s := range []topology.Node{upstream, probe.succ[j]} {
			nd, ep, kr := fresh()
			c := check{nd: nd, ep: ep, s: s, j: j}
			for _, nb := range nd.neighbors {
				if nb == nd.pred[j] {
					continue
				}
				f := copyFrame(nd, s, j, payload, hlc.Timestamp{})
				f.From = nb
				nd.handle(encode(t, kr, f), nd.scheduled(0))
			}
			if chans, counted := stored(nd, s); len(chans) != 0 || counted != 0 {
				t.Errorf("copy (%d, %d) from off its cycle was stored or counted", s, j)
			}
			if sent := relays(c); len(sent) != 0 {
				t.Errorf("copy (%d, %d) from off its cycle was relayed: %+v", s, j, sent)
			}
			f := copyFrame(nd, s, j, payload, hlc.Timestamp{Wall: 12345, Logical: 9})
			f.Hop = 0xBEEF
			body := encode(t, kr, f)
			nd.handle(body, nd.scheduled(0))
			nd.handle(body, nd.scheduled(0))
			c.tag = fmt.Sprintf("DATA (%d, %d) from pred %d", s, j, nd.pred[j])
			held(c)

			for _, nb := range nd.neighbors {
				nd, ep, kr := fresh()
				rep := copyFrame(nd, s, j, payload, hlc.Timestamp{})
				rep.Kind, rep.From, rep.Hop = transport.FrameRepair, nb, uint16(nd.hops(nd.cfg.Self, s, j)-1)
				nd.handle(encode(t, kr, rep), nd.scheduled(0))
				held(check{nd: nd, ep: ep, s: s, j: j, tag: fmt.Sprintf("REPAIR (%d, %d) from %d", s, j, nb)})
			}
		}
	}
}

// TestNakFromNonNeighborIgnored: NAK and JOIN are unsigned, so their
// From can name anything. One from a node that is not a neighbor, or
// from no node at all, is dropped unanswered, through handle and
// through Serve, instead of indexing the schedule or signing a reply
// nothing can be sent to. So is a neighbor's NAK for a copy of its own
// message, held or not. The same JOIN from a neighbor is answered.
func TestNakFromNonNeighborIgnored(t *testing.T) {
	for _, via := range []string{"handle", "Serve"} {
		nd, ep, kr := testNode(t, nil)
		t0 := nd.scheduled(0)
		nd.handle(copyBody(t, nd, kr, 5, 0, []byte("batch"), hlc.Timestamp{}), t0)
		nb := nd.neighbors[0]
		nd.handle(copyBody(t, nd, kr, nb, 0, []byte("batch"), hlc.Timestamp{}), t0)
		deliver := func(bodies ...[]byte) {
			ep.sent = nil
			if via == "handle" {
				for _, b := range bodies {
					nd.handle(b, t0)
				}
				return
			}
			ep.recv = make(chan []byte, len(bodies))
			for _, b := range bodies {
				ep.recv <- b
			}
			close(ep.recv)
			nd.Serve(context.Background())
		}
		var bodies [][]byte
		for _, from := range []topology.Node{3, -1, topology.Node(nd.n), 1 << 20} {
			bodies = append(bodies,
				encode(t, kr, &transport.Frame{Kind: transport.FrameNak, From: from, Source: 5}),
				encode(t, kr, &transport.Frame{Kind: transport.FrameNak, From: from, Source: 6}),
				encode(t, kr, &transport.Frame{Kind: transport.FrameJoin, From: from, Source: from}))
		}
		bodies = append(bodies,
			encode(t, kr, &transport.Frame{Kind: transport.FrameNak, From: nb, Source: nb}),
			encode(t, kr, &transport.Frame{Kind: transport.FrameNak, From: nb, Source: nb, Channel: 1}))
		deliver(bodies...)
		if len(ep.sent) != 0 {
			t.Fatalf("%s: NAKs from non-neighbors or for the requester's own copy, or JOINs from non-neighbors, answered: %+v", via, ep.sent)
		}
		deliver(encode(t, kr, &transport.Frame{Kind: transport.FrameJoin, From: nb, Source: nb}))
		if len(ep.sent) != 1 || ep.sent[0].to != nb || ep.sent[0].f.Kind != transport.FrameEpoch {
			t.Fatalf("%s: JOIN from neighbor %d answered with %+v, want one EPOCH frame", via, nb, ep.sent)
		}
	}
}

// TestOpenerKeepsEveryEpoch hands node 0, whose next epoch is 0, a copy
// of epoch 1 before either epoch is due on its schedule. The signed
// epoch lets the opener open epochs 0 and 1, in order, so a copy of
// epoch 0 that arrives afterwards is stored, not dropped as one from
// before the node's horizon.
func TestOpenerKeepsEveryEpoch(t *testing.T) {
	nd, _, kr := testNode(t, nil)
	now := nd.scheduled(0).Add(-time.Minute)
	later := copyFrame(nd, 5, 0, []byte("epoch 1"), hlc.Timestamp{})
	later.Epoch = 1
	nd.handle(encode(t, kr, later), now)
	nd.handle(copyBody(t, nd, kr, 5, 0, []byte("epoch 0"), hlc.Timestamp{}), now)
	for e, want := range []string{"epoch 0", "epoch 1"} {
		st := nd.open[uint32(e)]
		if st == nil {
			t.Fatalf("epoch %d not open after an epoch-1 copy (next %d)", e, nd.next)
		}
		if got := st.store[nd.slot(5, 0)]; string(got) != want {
			t.Errorf("epoch %d stored %q, want %q", e, got, want)
		}
	}
}

// TestNoEpochOpensBeforeItsSchedule steps a node 30 minutes and then
// 1 ms before Epoch0: it opens nothing until Epoch0, when it opens
// epoch 0. A twin handed a plausible signed copy of epoch 0 10 ms
// before Epoch0 opens epoch 0 then and stores the copy, since the copy
// shows the cluster has reached it. No signed epoch seen is not epoch 0
// seen: a node that read it so opened epoch 0 at its first step.
func TestNoEpochOpensBeforeItsSchedule(t *testing.T) {
	x := q4(t)
	kr := reliable.NewKeyring(x.N(), 3)
	epoch0 := time.Unix(1_000_000, 0)
	nd, _ := nodeOn(t, x, kr, epoch0, nil)
	for _, early := range []time.Duration{30 * time.Minute, time.Millisecond} {
		nd.step(epoch0.Add(-early))
		if nd.next != 0 || len(nd.open) != 0 {
			t.Fatalf("stepped %s before Epoch0: next %d, %d epochs open", early, nd.next, len(nd.open))
		}
	}
	nd.step(epoch0)
	if nd.next != 1 || nd.open[0] == nil {
		t.Fatalf("stepped at Epoch0: next %d, epoch 0 open: %v", nd.next, nd.open[0] != nil)
	}

	twin, _ := nodeOn(t, x, kr, epoch0, nil)
	now := epoch0.Add(-10 * time.Millisecond)
	twin.step(now)
	if len(twin.open) != 0 {
		t.Fatalf("twin stepped 10ms before Epoch0: %d epochs open", len(twin.open))
	}
	twin.handle(copyBody(t, twin, kr, 5, 0, []byte("epoch 0"), hlc.Timestamp{}), now)
	st := twin.open[0]
	if twin.next != 1 || st == nil {
		t.Fatalf("twin handed a copy of epoch 0: next %d, epoch 0 open: %v", twin.next, st != nil)
	}
	if got := st.store[twin.slot(5, 0)]; string(got) != "epoch 0" {
		t.Errorf("twin stored %q, want the copy", got)
	}
}

// TestOpenerIgnoresLastEpoch hands a node that has opened epoch 0 one
// validly signed copy of epoch 2³²−1, which any source can sign. The
// opener still opens only the next epoch under the pipeline cap: that
// epoch stays closed, and next does not wrap to 0.
func TestOpenerIgnoresLastEpoch(t *testing.T) {
	nd, _, kr := testNode(t, nil)
	now := nd.scheduled(0)
	nd.step(now)
	before := nd.next
	last := copyFrame(nd, 5, 0, []byte("batch"), hlc.Timestamp{})
	last.Epoch = math.MaxUint32
	nd.handle(encode(t, kr, last), now)
	if nd.next < before {
		t.Errorf("next fell from %d to %d", before, nd.next)
	}
	if _, open := nd.open[math.MaxUint32]; open {
		t.Error("epoch 2³²−1 opened")
	}
}

// TestFarFutureEpochTeachesNothing hands one validly signed REPAIR of
// epoch 2³²−1, which any source can sign, to a live node 30 minutes
// before epoch 0 and to a rejoiner. The live node opens only what an
// untouched twin opens at the same instant, and answers a JOIN with the
// schedule's epoch. The rejoiner stays unjoined and keeps sending JOINs,
// then joins on a plausible EPOCH.
func TestFarFutureEpochTeachesNothing(t *testing.T) {
	x := q4(t)
	kr := reliable.NewKeyring(x.N(), 3)
	epoch0 := time.Unix(1_000_000, 0)
	repair := func(nd *Node) []byte {
		f := copyFrame(nd, 5, 0, []byte("batch"), hlc.Timestamp{})
		f.Kind, f.From, f.Epoch = transport.FrameRepair, 1, math.MaxUint32
		return encode(t, kr, f)
	}
	join := encode(t, kr, &transport.Frame{Kind: transport.FrameJoin, From: 1, Source: 1})

	now := epoch0.Add(-30 * time.Minute)
	live, ep := nodeOn(t, x, kr, epoch0, nil)
	twin, _ := nodeOn(t, x, kr, epoch0, nil)
	live.handle(repair(live), now)
	live.step(now)
	twin.step(now)
	if live.next != twin.next || len(live.open) != len(twin.open) || live.highest != twin.highest {
		t.Fatalf("after the REPAIR: next %d, %d open, highest %d; untouched: next %d, %d open, highest %d",
			live.next, len(live.open), live.highest, twin.next, len(twin.open), twin.highest)
	}
	live.handle(join, now)
	for _, s := range ep.sent {
		if s.f.Kind == transport.FrameEpoch && s.f.Epoch > 0 {
			t.Fatalf("answered a JOIN 30 minutes before epoch 0 with epoch %d", s.f.Epoch)
		}
	}

	now = epoch0.Add(3500 * time.Millisecond) // the schedule has reached epoch 3
	jep := &memEndpoint{self: 0, recv: make(chan []byte, 1)}
	joiner, err := NewNode(Config{
		IHC: x, Eta: 2, Self: 0, Endpoint: jep, Keyring: kr,
		Epoch0: epoch0, Period: time.Second, Epochs: 10, Join: true,
		Payload: func(uint32) []byte { return []byte("own batch") },
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner.handle(repair(joiner), now)
	joiner.step(now)
	joiner.step(now.Add(joiner.joinInterval()))
	joins := 0
	for _, s := range jep.sent {
		if s.f.Kind == transport.FrameJoin {
			joins++
		}
	}
	if joiner.joined || len(joiner.open) != 0 || joins != 2 {
		t.Fatalf("after the REPAIR: joined %v, %d open, %d JOINs sent; want unjoined, none open, 2 JOINs",
			joiner.joined, len(joiner.open), joins)
	}
	joiner.handle(encode(t, kr, &transport.Frame{Kind: transport.FrameEpoch, From: 1, Source: 1, Epoch: 3}), now)
	if !joiner.joined || joiner.next != 4 {
		t.Fatalf("after EPOCH 3: joined %v, next %d; want joined, next 4", joiner.joined, joiner.next)
	}
}

// fuzzFrameLen is the fixed part of one fuzzed frame: kind, from,
// source, epoch (4 bytes), channel, stage, hop (2 bytes), payload
// length and the clock's advance in milliseconds before the frame.
const fuzzFrameLen = 13

// fuzzFrames decodes fuzzer bytes into frames and the time each one
// arrives, one fixed header and up to 15 payload bytes per frame.
func fuzzFrames(data []byte, start time.Time) (frames []*transport.Frame, at []time.Time) {
	now := start
	for len(data) >= fuzzFrameLen {
		h := data[:fuzzFrameLen]
		f := &transport.Frame{
			Kind:    transport.FrameKind(h[0] % 7),
			From:    topology.Node(int8(h[1])),
			Source:  topology.Node(int8(h[2])),
			Epoch:   binary.LittleEndian.Uint32(h[3:]),
			Channel: h[7],
			Stage:   h[8],
			Hop:     binary.LittleEndian.Uint16(h[9:]),
		}
		data = data[fuzzFrameLen:]
		n := min(int(h[11]%16), len(data))
		f.Payload, data = data[:n], data[n:]
		now = now.Add(time.Duration(h[12]) * time.Millisecond)
		frames, at = append(frames, f), append(at, now)
	}
	return frames, at
}

// fuzzFrameBytes is fuzzFrames' inverse for one frame, for the seeds.
func fuzzFrameBytes(kind transport.FrameKind, from, src topology.Node, epoch uint32, ch uint8, payload string) []byte {
	b := []byte{byte(kind), byte(int8(from)), byte(int8(src))}
	b = binary.LittleEndian.AppendUint32(b, epoch)
	b = append(b, ch, 0, 0, 0, byte(len(payload)), 1)
	return append(b, payload...)
}

// FuzzNodeHandle feeds frames built from fuzzer bytes to a Q4 node
// through handle, stepping it on a synthetic clock between frames, and
// to a second node through Serve. Signed kinds are signed with the
// test keyring, so they pass verification and reach the protocol.
// Neither node may panic, send to a node that is not its neighbor, or
// move next back.
func FuzzNodeHandle(f *testing.F) {
	x := q4(f)
	n, gamma := topology.Node(x.N()), uint8(x.Gamma())
	kr := reliable.NewKeyring(x.N(), 3)
	f.Add(fuzzFrameBytes(transport.FrameMiss, 1, n, 0, gamma, ""))
	f.Add(fuzzFrameBytes(transport.FrameNak, 1, n, 0, gamma, ""))
	f.Add(fuzzFrameBytes(transport.FrameRepair, 1, 5, math.MaxUint32, 0, "last"))
	f.Add(append(fuzzFrameBytes(transport.FrameData, 8, 5, 1, 0, "data"),
		fuzzFrameBytes(transport.FrameNak, 2, 5, 1, 0, "")...))
	epoch0 := time.Unix(1_000_000, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, at := fuzzFrames(data, epoch0)
		var bodies [][]byte
		nd, ep := nodeOn(t, x, kr, epoch0, hlc.NewAt(func() int64 { return epoch0.UnixNano() }))
		nd.step(epoch0) // epoch 0 is open, so a MISS reaches its planner
		for i, fr := range frames {
			if fr.Kind.Signed() && transport.SignFrame(kr, fr) != nil {
				continue // a source with no key: nothing can sign it
			}
			body, err := transport.EncodeFrame(fr)
			if err != nil {
				continue
			}
			bodies = append(bodies, body)
			next := nd.next
			nd.handle(body, at[i])
			nd.step(at[i])
			if nd.next < next {
				t.Fatalf("frame %d: next fell from %d to %d", i, next, nd.next)
			}
		}
		srv, srvEp := nodeOn(t, x, kr, epoch0, nil)
		srvEp.recv = make(chan []byte, len(bodies))
		for _, body := range bodies {
			srvEp.recv <- body
		}
		close(srvEp.recv)
		srv.Serve(context.Background())
		for _, sent := range append(ep.sent, srvEp.sent...) {
			if !x.Graph().HasEdge(0, sent.to) {
				t.Fatalf("sent a %s frame to %d, not a neighbor of 0", sent.f.Kind, sent.to)
			}
		}
	})
}
