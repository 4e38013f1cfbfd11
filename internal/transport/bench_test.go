package transport

import (
	"testing"

	"ihc/internal/hlc"
	"ihc/internal/reliable"
	"ihc/internal/topology"
)

// relayCycle is a 32-node directed cycle: node (5 + 9i) mod 32 holds
// position i, so relayFrame's source 5 sits at position 0.
func relayCycle() []topology.Node {
	const n = 32
	c := make([]topology.Node, n)
	for i := range c {
		c[i] = topology.Node((5 + 9*i) % n)
	}
	return c
}

// relayFrame is a signed Q5 DATA copy as the streaming benchmark
// relays it: its source's injection, carrying a 2,400-byte epoch batch.
func relayFrame(tb testing.TB, kr *reliable.Keyring) *Frame {
	f := &Frame{
		Kind:    FrameData,
		From:    5,
		Source:  5,
		Epoch:   12,
		Channel: 2,
		Stage:   1,
		HLC:     hlc.Timestamp{Wall: 1_700_000_000_000_000_000, Logical: 3},
		Payload: goldenPayload(2400),
	}
	if err := SignFrame(kr, f); err != nil {
		tb.Fatal(err)
	}
	return f
}

func relayBody(tb testing.TB, kr *reliable.Keyring) []byte {
	body, err := EncodeFrame(relayFrame(tb, kr))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestRelayAllocs bounds the allocations of the per-copy relay work.
// Decoding allocates the Frame and nothing else (the payload and MAC
// alias the body); verifying allocates nothing (pooled keyed state,
// header in its scratch space, sum into a pooled array); signing
// allocates only the MAC it returns.
func TestRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	kr := reliable.NewKeyring(32, 1)
	f := relayFrame(t, kr)
	body := relayBody(t, kr)
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"VerifyFrame", 0, func() {
			if ok, err := VerifyFrame(kr, f); !ok || err != nil {
				t.Fatalf("verify: ok=%v err=%v", ok, err)
			}
		}},
		{"DecodeFrame", 1, func() {
			if _, err := DecodeFrame(body); err != nil {
				t.Fatal(err)
			}
		}},
		{"SignFrame", 1, func() {
			g := *f
			if err := SignFrame(kr, &g); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s: %.0f allocs per call, want ≤ %.0f", tc.name, got, tc.max)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	body := relayBody(b, reliable.NewKeyring(32, 1))
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyFrame(b *testing.B) {
	kr := reliable.NewKeyring(32, 1)
	f := relayFrame(b, kr)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(int64(len(f.Payload)))
	for i := 0; i < b.N; i++ {
		if ok, err := VerifyFrame(kr, f); !ok || err != nil {
			b.Fatalf("verify: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkSignFrame(b *testing.B) {
	kr := reliable.NewKeyring(32, 1)
	f := relayFrame(b, kr)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(int64(len(f.Payload)))
	for i := 0; i < b.N; i++ {
		if err := SignFrame(kr, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelayHop is one relayed copy's codec and MAC work: decode
// the received body, verify it, and re-encode it for the next hop, as
// a streaming node's handle and forward do. The relay is the copy's
// next holder on its cycle and stamps its own id and distance.
func BenchmarkRelayHop(b *testing.B) {
	kr := reliable.NewKeyring(32, 1)
	body := relayBody(b, kr)
	cycle := relayCycle()
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		f, err := DecodeFrame(body)
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := VerifyFrame(kr, f); !ok || err != nil {
			b.Fatalf("verify: ok=%v err=%v", ok, err)
		}
		out := *f
		out.From, out.Hop = cycle[f.Hop+1], f.Hop+1
		if _, err := EncodeFrame(&out); err != nil {
			b.Fatal(err)
		}
	}
}
