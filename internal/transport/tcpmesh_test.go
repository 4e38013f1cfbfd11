package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"ihc/internal/topology"
)

// newPair builds two live endpoints on K2, pre-binding both listeners
// so each side knows the other's address up front (the same two-phase
// construction the cluster harness uses).
func newPair(t *testing.T) (*TCPNode, *TCPNode, *topology.Graph) {
	t.Helper()
	g := topology.Complete(2)
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTCP(TCPConfig{
		Self: 0, Graph: g, Listener: lnA,
		Peers: map[topology.Node]string{1: lnB.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(TCPConfig{
		Self: 1, Graph: g, Listener: lnB,
		Peers: map[topology.Node]string{0: lnA.Addr().String()},
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b, g
}

func recvFrame(t *testing.T, ep Endpoint, timeout time.Duration) *Frame {
	t.Helper()
	select {
	case body, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		f, err := DecodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		return f
	case <-time.After(timeout):
		t.Fatal("no frame within timeout")
		return nil
	}
}

func TestTCPSendRecv(t *testing.T) {
	a, b, _ := newPair(t)
	defer a.Close()
	defer b.Close()
	f := &Frame{Kind: FrameData, From: 0, Source: 0, Channel: 1, Payload: []byte("hello")}
	if err := a.Send(1, f); err != nil {
		t.Fatal(err)
	}
	got := recvFrame(t, b, 2*time.Second)
	if got.Source != 0 || got.Channel != 1 || string(got.Payload) != "hello" {
		t.Fatalf("received %+v", got)
	}
	if err := a.Send(0, f); err == nil {
		t.Fatal("send to self accepted")
	}
	if s := a.Stats(); s.Sent != 1 {
		t.Fatalf("sent counter = %d, want 1", s.Sent)
	}
}

// TestTCPReconnectRecoversNakPath is the peer-dies-mid-stage scenario:
// node 1 dies, node 0's sends fail until the circuit breaker opens,
// node 1 comes back on the same address, and the next NAK → REPAIR
// exchange completes over fresh connections in both directions.
func TestTCPReconnectRecoversNakPath(t *testing.T) {
	a, b, g := newPair(t)
	defer a.Close()

	// Warm the connection, then kill the peer.
	if err := a.Send(1, &Frame{Kind: FrameData, Source: 0, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, b, 2*time.Second)
	bAddr := b.Addr()
	b.Close()

	// Sends now fail: the established conn breaks, redials are refused,
	// and the breaker must trip open, after which Send refuses
	// immediately with PeerDownError.
	deadline := time.Now().Add(5 * time.Second)
	for !a.PeerDown(1) {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened after peer death")
		}
		a.Send(1, &Frame{Kind: FrameData, Source: 0, Payload: []byte("lost")})
		time.Sleep(5 * time.Millisecond)
	}
	var pd *PeerDownError
	if err := a.Send(1, &Frame{Kind: FrameNak, Source: 0}); !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("send on open breaker: %v, want PeerDownError{Peer: 1}", err)
	}

	// Restart the peer on the same address — a fresh process with fresh
	// connections, as after a crash-recover.
	lnB2, err := net.Listen("tcp", bAddr)
	if err != nil {
		t.Fatalf("restart peer on %s: %v", bAddr, err)
	}
	b2, err := NewTCP(TCPConfig{
		Self: 1, Graph: g, Listener: lnB2,
		Peers: map[topology.Node]string{0: a.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// Keep retrying the NAK: once the cooldown admits a probe, the
	// redial succeeds, the breaker closes, and the frame goes through.
	reconnectsBefore := a.Stats().Reconnects
	deadline = time.Now().Add(5 * time.Second)
	var nak *Frame
	for nak == nil {
		if time.Now().After(deadline) {
			t.Fatal("NAK never arrived after peer restart")
		}
		a.Send(1, &Frame{Kind: FrameNak, From: 0, Source: 2, Channel: 1})
		select {
		case body, ok := <-b2.Recv():
			if !ok {
				t.Fatal("restarted peer's recv channel closed")
			}
			f, err := DecodeFrame(body)
			if err != nil {
				t.Fatal(err)
			}
			if f.Kind == FrameNak {
				nak = f
			}
		case <-time.After(10 * time.Millisecond):
		}
	}
	if a.PeerDown(1) {
		t.Fatal("breaker still open after successful delivery")
	}
	if got := a.Stats().Reconnects; got <= reconnectsBefore {
		t.Fatalf("reconnect counter did not advance (%d)", got)
	}

	// And the repair answer crosses the reverse direction's own fresh
	// connection.
	if err := b2.Send(0, &Frame{Kind: FrameRepair, From: 1, Source: 2, Channel: 1, Payload: []byte("copy")}); err != nil {
		t.Fatal(err)
	}
	rep := recvFrame(t, a, 2*time.Second)
	if rep.Kind != FrameRepair || rep.Source != 2 || string(rep.Payload) != "copy" {
		t.Fatalf("repair reply %+v", rep)
	}
}
