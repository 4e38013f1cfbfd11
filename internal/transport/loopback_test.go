package transport

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ihc/internal/topology"
)

// pathGraph is the path 0 – 1 – 2: node 1 hears from two links.
func pathGraph() *topology.Graph {
	g := topology.New("P3", 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	return g
}

// filterFunc adapts a function to LinkFilter.
type filterFunc func(from, to topology.Node, now time.Duration) FilterAction

func (f filterFunc) Filter(from, to topology.Node, now time.Duration) FilterAction {
	return f(from, to, now)
}

func newMesh(t *testing.T, cfg LoopbackConfig) *Loopback {
	t.Helper()
	lb, err := NewLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	return lb
}

func endpoint(t *testing.T, lb *Loopback, v topology.Node) Endpoint {
	t.Helper()
	ep, err := lb.Endpoint(v)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// tagged is a frame named by its epoch, so a receiver can tell frames
// apart.
func tagged(from topology.Node, tag uint32) *Frame {
	return &Frame{Kind: FrameNak, From: from, Source: from, Epoch: tag}
}

// recvTag waits for the next frame on ep and returns its tag and when
// it arrived.
func recvTag(t *testing.T, ep Endpoint) (uint32, time.Time) {
	t.Helper()
	select {
	case body := <-ep.Recv():
		at := time.Now()
		f, err := DecodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		return f.Epoch, at
	case <-time.After(10 * time.Second):
		t.Fatal("no frame within 10s")
	}
	return 0, time.Time{}
}

// TestLoopbackLinkFIFO delays the first frame on 0→1 by 50ms: the
// frames sent after it on 0→1 wait behind it and arrive in send order,
// while a frame sent later on 2→1 is not held back. No frame arrives
// before its send time plus the latency.
func TestLoopbackLinkFIFO(t *testing.T) {
	const latency = 2 * time.Millisecond
	var mu sync.Mutex
	first := true
	lb := newMesh(t, LoopbackConfig{Graph: pathGraph(), Latency: latency,
		Filter: filterFunc(func(from, to topology.Node, _ time.Duration) FilterAction {
			mu.Lock()
			defer mu.Unlock()
			if from == 0 && to == 1 && first {
				first = false
				return FilterAction{Delay: 50 * time.Millisecond}
			}
			return FilterAction{}
		})})
	a, b, c := endpoint(t, lb, 0), endpoint(t, lb, 1), endpoint(t, lb, 2)
	sent := map[uint32]time.Time{}
	send := func(ep Endpoint, from topology.Node, tag uint32) {
		sent[tag] = time.Now()
		if err := ep.Send(1, tagged(from, tag)); err != nil {
			t.Fatal(err)
		}
	}
	send(a, 0, 1) // delayed
	send(a, 0, 2)
	send(a, 0, 3)
	send(c, 2, 4) // another link: not held back
	var order []uint32
	for range sent {
		tag, at := recvTag(t, b)
		if early := sent[tag].Add(latency).Sub(at); early > 0 {
			t.Errorf("frame %d arrived %s before its send time + latency", tag, early)
		}
		order = append(order, tag)
	}
	if want := []uint32{4, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("arrival order %v, want %v", order, want)
	}
}

// TestLoopbackQueueBound fills one link: with an hour of latency it
// accepts queueLen frames, refuses the next with the queue-full error
// and counts it, and another link still accepts frames.
func TestLoopbackQueueBound(t *testing.T) {
	lb := newMesh(t, LoopbackConfig{Graph: pathGraph(), Latency: time.Hour})
	mid := endpoint(t, lb, 1)
	for i := 0; i < queueLen; i++ {
		if err := mid.Send(0, tagged(1, uint32(i))); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	err := mid.Send(0, tagged(1, queueLen))
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("frame %d on a full link: err %v, want queue full", queueLen, err)
	}
	if err := mid.Send(2, tagged(1, 0)); err != nil {
		t.Fatalf("another link refused a frame: %v", err)
	}
	st := mid.Stats()
	if st.Sent != queueLen+1 || st.SendErrors != 1 {
		t.Fatalf("stats %+v, want %d sent and 1 send error", st, queueLen+1)
	}
	if err := mid.Send(1, tagged(1, 0)); err == nil {
		t.Fatal("a send to self was accepted")
	}
}

// TestLoopbackFilterActions checks each filter verdict: a drop counts as
// sent and delivers nothing, a duplicate delivers the same body twice,
// and a corruption flips the middle byte.
func TestLoopbackFilterActions(t *testing.T) {
	var mu sync.Mutex
	var act FilterAction
	set := func(a FilterAction) { mu.Lock(); act = a; mu.Unlock() }
	lb := newMesh(t, LoopbackConfig{Graph: pathGraph(),
		Filter: filterFunc(func(topology.Node, topology.Node, time.Duration) FilterAction {
			mu.Lock()
			defer mu.Unlock()
			return act
		})})
	a, b := endpoint(t, lb, 0), endpoint(t, lb, 1)
	f := &Frame{Kind: FrameData, From: 0, Source: 0, Epoch: 7, Payload: []byte("payload")}
	clean, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	next := func() []byte {
		select {
		case body := <-b.Recv():
			return body
		case <-time.After(10 * time.Second):
			t.Fatal("no frame within 10s")
		}
		return nil
	}

	set(FilterAction{Drop: true})
	if err := a.Send(1, f); err != nil {
		t.Fatal(err)
	}
	set(FilterAction{Duplicate: true})
	if err := a.Send(1, f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := next(); !bytes.Equal(got, clean) {
			t.Fatalf("duplicate %d differs from the frame sent", i)
		}
	}
	set(FilterAction{Corrupt: true})
	if err := a.Send(1, f); err != nil {
		t.Fatal(err)
	}
	got := next()
	want := append([]byte(nil), clean...)
	want[len(want)/2] ^= 0xFF
	if !bytes.Equal(got, want) {
		t.Fatal("corruption did not flip exactly the middle byte")
	}
	if st := a.Stats(); st.Sent != 3 || st.SendErrors != 0 {
		t.Fatalf("sender stats %+v, want 3 sent", st)
	}
	if st := b.Stats(); st.Received != 3 {
		t.Fatalf("receiver stats %+v, want 3 received: the dropped frame arrived", st)
	}
	select {
	case <-b.Recv():
		t.Fatal("a dropped frame was delivered")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestLoopbackInboxOverflow sends more frames than an inbox holds to a
// receiver that never reads: the inbox takes queueLen of them and the
// rest count as DroppedRx.
func TestLoopbackInboxOverflow(t *testing.T) {
	const perLink = 600
	lb := newMesh(t, LoopbackConfig{Graph: pathGraph()})
	a, b, c := endpoint(t, lb, 0), endpoint(t, lb, 1), endpoint(t, lb, 2)
	for i := 0; i < perLink; i++ {
		if err := a.Send(1, tagged(0, uint32(i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(1, tagged(2, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.Stats()
		if st.Received+st.DroppedRx == 2*perLink {
			if st.Received != queueLen || st.DroppedRx != 2*perLink-queueLen {
				t.Fatalf("stats %+v, want %d received and %d dropped", st, queueLen, 2*perLink-queueLen)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames delivered or dropped", st.Received+st.DroppedRx, 2*perLink)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopbackClose checks that NewLoopback starts one goroutine and
// that Close stops it, closes every inbox, and makes Send fail.
func TestLoopbackClose(t *testing.T) {
	before := runtime.NumGoroutine()
	lb, err := NewLoopback(LoopbackConfig{Graph: pathGraph(), Latency: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("NewLoopback started %d goroutines, want 1", n-before)
	}
	a := endpoint(t, lb, 0)
	if err := a.Send(1, tagged(0, 1)); err != nil { // still queued at Close
		t.Fatal(err)
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	for v := topology.Node(0); v < 3; v++ {
		if _, open := <-endpoint(t, lb, v).Recv(); open {
			t.Errorf("node %d's inbox is open after Close", v)
		}
	}
	if err := a.Send(1, tagged(0, 2)); err == nil {
		t.Error("Send after Close succeeded")
	}
	if st := a.Stats(); st.SendErrors != 1 {
		t.Errorf("stats %+v, want 1 send error", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewLoopback", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkNewLoopbackQ5 builds and closes the Q5 loopback mesh a
// stream-q5 cluster runs on.
func BenchmarkNewLoopbackQ5(b *testing.B) {
	g := topology.MustHypercube(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lb, err := NewLoopback(LoopbackConfig{Graph: g, Latency: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		lb.Close()
	}
}
