package message

import (
	"bytes"
	"fmt"
	"testing"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/reliable"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

func mustIHC(t *testing.T, g *topology.Graph) *core.IHC {
	t.Helper()
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

func params() simnet.Params {
	return simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
}

// End-to-end multi-round exchange: every node broadcasts a message longer
// than one packet; every node reconstructs all N messages exactly; the
// total time is rounds x the Table II per-invocation time.
func TestBroadcastMultiRound(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := mustIHC(t, g)
	n := g.N()
	const bFIFO = 16 // packet = μ·B_FIFO = 32 bytes; 20 payload bytes unsigned
	msgs := make([][]byte, n)
	for v := range msgs {
		msgs[v] = []byte(fmt.Sprintf("node-%02d says: %s", v, bytes.Repeat([]byte{byte('a' + v)}, 30)))
	}
	p := params()
	res, err := Broadcast(x, msgs, p, 2, bFIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	capacity := PayloadCapacity(p.Mu, bFIFO, false)
	wantRounds := (len(msgs[0]) + capacity - 1) / capacity
	if res.Rounds != wantRounds {
		t.Fatalf("rounds = %d, want %d", res.Rounds, wantRounds)
	}
	if res.Contentions != 0 {
		t.Fatalf("contentions = %d", res.Contentions)
	}
	want := simnet.Time(res.Rounds) * model.IHCBest(p, n, 2)
	if res.Finish != want {
		t.Fatalf("finish = %d, want rounds x T_IHC = %d", res.Finish, want)
	}
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			if v == s {
				continue
			}
			if !bytes.Equal(res.Messages[v][s], msgs[s]) {
				t.Fatalf("node %d reconstructed source %d wrong: %q", v, s, res.Messages[v][s])
			}
		}
	}
}

// Mixed message lengths: short senders pad by re-sending their last
// fragment; reconstruction still exact.
func TestBroadcastMixedLengths(t *testing.T) {
	g := topology.MustHypercube(3)
	x := mustIHC(t, g)
	msgs := [][]byte{
		[]byte("a"),
		bytes.Repeat([]byte("long"), 20),
		{},
		[]byte("medium message"),
		bytes.Repeat([]byte("x"), 41),
		[]byte("b"),
		[]byte("c"),
		bytes.Repeat([]byte("zz"), 15),
	}
	res, err := Broadcast(x, msgs, params(), 2, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		for s := 0; s < 8; s++ {
			if v == s {
				continue
			}
			if !bytes.Equal(res.Messages[v][s], msgs[s]) {
				t.Fatalf("node %d got %q for source %d, want %q", v, res.Messages[v][s], s, msgs[s])
			}
		}
	}
}

// Signed operation: MACs ride in the packets, capacity shrinks, nothing
// is rejected in a fault-free network, and reconstruction is exact.
func TestBroadcastSigned(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := mustIHC(t, g)
	n := g.N()
	kr := reliable.NewKeyring(n, 99)
	msgs := make([][]byte, n)
	for v := range msgs {
		msgs[v] = bytes.Repeat([]byte{byte(v + 1)}, 25)
	}
	res, err := Broadcast(x, msgs, params(), 2, 32, kr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected %d copies in a fault-free run", res.Rejected)
	}
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			if v != s && !bytes.Equal(res.Messages[v][s], msgs[s]) {
				t.Fatalf("signed reconstruction wrong at (%d,%d)", v, s)
			}
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	g := topology.MustSquareTorus(4)
	x := mustIHC(t, g)
	if _, err := Broadcast(x, make([][]byte, 3), params(), 2, 16, nil); err == nil {
		t.Fatal("wrong message count accepted")
	}
	// Packet too small for the header.
	if _, err := Broadcast(x, make([][]byte, 16), params(), 2, 4, nil); err == nil {
		t.Fatal("tiny packet accepted")
	}
}
