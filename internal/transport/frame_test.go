package transport

import (
	"bytes"
	"reflect"
	"testing"

	"ihc/internal/hlc"
	"ihc/internal/reliable"
	"ihc/internal/topology"
)

func sampleFrame() *Frame {
	return &Frame{
		Kind:    FrameData,
		From:    3,
		Source:  5,
		Channel: 1,
		Stage:   2,
		Hop:     4,
		HLC:     hlc.Timestamp{Wall: 123456789, Logical: 7},
		Payload: []byte("payload-bytes"),
		MAC:     []byte{0xde, 0xad, 0xbe, 0xef},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []*Frame{
		sampleFrame(),
		{Kind: FrameNak, From: 1, Source: 2, Channel: 0},
		{Kind: FrameMiss, From: 6, Source: 0, Channel: 1, Stage: 3},
		{Kind: FrameRepair, Source: 7, Hop: 0xFFFF, Payload: []byte{1}},
		{Kind: FrameData, From: 1 << 20, Source: 4, Epoch: 0xDEADBEEF, Payload: []byte{2}},
		{Kind: FrameJoin, From: 2, Source: 2},
		{Kind: FrameEpoch, From: 3, Source: 3, Epoch: 41, MAC: []byte{1, 2}},
	} {
		body, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Kind, err)
		}
		got, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Kind, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("%s round trip:\n sent %+v\n got  %+v", f.Kind, f, got)
		}
	}
}

// TestDecodeNeverPanics truncates and mutates a valid body every way a
// broken link could: all prefixes, plus every single-byte corruption.
// Decoding must return a frame or an error — never panic.
func TestDecodeNeverPanics(t *testing.T) {
	body, err := EncodeFrame(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeFrame(body[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	for i := range body {
		mut := append([]byte(nil), body...)
		mut[i] ^= 0xff
		DecodeFrame(mut) // outcome irrelevant; must not panic
	}
}

func TestDecodeRejectsBadKindAndLengths(t *testing.T) {
	body, _ := EncodeFrame(sampleFrame())
	bad := append([]byte(nil), body...)
	bad[0] = 0
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("kind 0 accepted")
	}
	bad[0] = 200
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("kind 200 accepted")
	}
	if _, err := DecodeFrame(make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("oversized body: %v, want ErrFrameTooLarge", err)
	}
	long := &Frame{Kind: FrameData, Payload: make([]byte, MaxFrame-frameHdr-3)}
	if _, err := EncodeFrame(long); err != ErrFrameTooLarge {
		t.Fatalf("payload one byte past MaxFrame encoded: %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameOverhead pins the per-hop cost of the wire format, the way
// a fixed HMAC_SIZE pins it in a message budget: a DATA frame with a
// P-byte payload encodes to P + 65 bytes — the 29-byte header, two
// 2-byte lengths and the 32-byte MAC — whatever the network's size N.
// No field grows with N, so no node count is capped by the codec.
func TestFrameOverhead(t *testing.T) {
	for _, n := range []int{8, 32, 1024, 8192} {
		kr := reliable.NewKeyring(n, 1)
		for _, p := range []int{0, 64, 2400} {
			f := &Frame{
				Kind: FrameData, From: topology.Node(n - 2), Source: topology.Node(n - 1),
				Epoch: 9, Channel: 3, Stage: 1, Hop: uint16(n - 2), Payload: goldenPayload(p),
			}
			if err := SignFrame(kr, f); err != nil {
				t.Fatal(err)
			}
			body, err := EncodeFrame(f)
			if err != nil {
				t.Fatalf("N=%d P=%d: %v", n, p, err)
			}
			if len(body) != p+65 {
				t.Errorf("N=%d: a %d-byte payload encodes to %d bytes, want %d", n, p, len(body), p+65)
			}
		}
	}
}

func TestSignAndVerifyFrame(t *testing.T) {
	kr := reliable.NewKeyring(8, 42)
	f := sampleFrame()
	f.MAC = nil
	if err := SignFrame(kr, f); err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyFrame(kr, f)
	if err != nil || !ok {
		t.Fatalf("signed frame rejected: ok=%v err=%v", ok, err)
	}
	// Per-hop mutable fields must not affect the MAC.
	f.From, f.Hop, f.HLC = 0, 99, hlc.Timestamp{Wall: 1}
	if ok, _ := VerifyFrame(kr, f); !ok {
		t.Fatal("per-hop field change invalidated the MAC")
	}
	// MAC-covered fields must.
	tampered := *f
	tampered.Payload = append([]byte(nil), f.Payload...)
	tampered.Payload[0] ^= 1
	if ok, _ := VerifyFrame(kr, &tampered); ok {
		t.Fatal("payload tamper passed verification")
	}
	tampered = *f
	tampered.Channel ^= 1
	if ok, _ := VerifyFrame(kr, &tampered); ok {
		t.Fatal("channel tamper passed verification")
	}
	// The epoch is MAC-covered: a copy signed for round e must not
	// replay as a fresh copy in round e+1.
	tampered = *f
	tampered.Epoch++
	if ok, _ := VerifyFrame(kr, &tampered); ok {
		t.Fatal("cross-epoch replay passed verification")
	}
	// EPOCH responses are signed — a rejoiner fast-forwards off them.
	ep := &Frame{Kind: FrameEpoch, Source: 5, Epoch: 17}
	if err := SignFrame(kr, ep); err != nil {
		t.Fatal(err)
	}
	if ok, _ := VerifyFrame(kr, ep); !ok {
		t.Fatal("signed EPOCH rejected")
	}
	forged := *ep
	forged.Epoch = 99
	if ok, _ := VerifyFrame(kr, &forged); ok {
		t.Fatal("forged EPOCH fast-forward passed verification")
	}
	// Control frames are accepted unsigned.
	nak := &Frame{Kind: FrameNak, Source: 5}
	if ok, err := VerifyFrame(kr, nak); !ok || err != nil {
		t.Fatalf("unsigned NAK rejected: ok=%v err=%v", ok, err)
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range bodies {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: %q != %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("read past final record succeeded")
	}
	// A hostile length prefix is refused before allocation.
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("oversized write: %v", err)
	}
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("hostile prefix: %v, want ErrFrameTooLarge", err)
	}
}
