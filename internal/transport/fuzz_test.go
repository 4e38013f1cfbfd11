package transport

import (
	"bytes"
	"reflect"
	"testing"

	"ihc/internal/hlc"
)

// FuzzFrameDecode hammers the wire codec with truncated, oversized,
// bit-flipped, and length-lying bodies. The invariants:
//
//   - DecodeFrame never panics and never over-allocates — every length
//     field is validated against the remaining input before use, so a
//     body claiming a 65,535-byte payload must actually carry the bytes;
//   - anything it accepts re-encodes canonically: encode(decode(b))
//     decodes back to the identical frame (no hidden state survives a
//     trip through the parser);
//   - inputs over MaxFrame are refused before any work;
//   - an accepted frame's Payload and MAC, which alias b, are clipped
//     to cap == len, so appending to the payload can never overwrite
//     the MAC that follows it in b.
func FuzzFrameDecode(f *testing.F) {
	seed, err := EncodeFrame(sampleFrame())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:frameHdr])
	f.Add([]byte{})
	// A length-lying specimen: valid header, payload length (bytes
	// 29–30) claiming far more bytes than the body holds.
	lie := append([]byte(nil), seed...)
	lie[29], lie[30] = 0xFF, 0xFF
	f.Add(lie)
	for _, fr := range []*Frame{
		{Kind: FrameNak, Source: 1, Epoch: 7},
		{Kind: FrameMiss, Source: 1, Epoch: 7},
		{Kind: FrameJoin, Source: 1, Epoch: 7},
		{Kind: FrameEpoch, Source: 1, Epoch: 7},
		// A relayed DATA copy and the REPAIR a provider sends to the
		// requester at distance 12, each with a 32-byte MAC.
		{Kind: FrameData, From: 30, Source: 17, Epoch: 7, Channel: 2, Stage: 1, Hop: 13,
			HLC: hlc.Timestamp{Wall: 1 << 60, Logical: 2}, Payload: goldenPayload(64), MAC: goldenPayload(32)},
		{Kind: FrameRepair, From: 4, Source: 17, Epoch: 7, Channel: 2, Stage: 1, Hop: 11,
			HLC: hlc.Timestamp{Wall: 1 << 60, Logical: 3}, Payload: goldenPayload(64), MAC: goldenPayload(32)},
	} {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if len(b) > MaxFrame {
			if err != ErrFrameTooLarge {
				t.Fatalf("oversized body (%d bytes): %v, want ErrFrameTooLarge", len(b), err)
			}
			return
		}
		if err != nil {
			return // rejected is always acceptable for hostile input
		}
		if cap(fr.Payload) != len(fr.Payload) || cap(fr.MAC) != len(fr.MAC) {
			t.Fatalf("decoded slices not clipped: payload len %d cap %d, MAC len %d cap %d",
				len(fr.Payload), cap(fr.Payload), len(fr.MAC), cap(fr.MAC))
		}
		reenc, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		again, err := DecodeFrame(reenc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("decode/encode/decode not a fixed point:\n first %+v\n again %+v", fr, again)
		}
		// The canonical encoding of a decoded frame is the accepted
		// body itself — the parser tolerates no redundant forms.
		if !bytes.Equal(reenc, b) {
			t.Fatalf("accepted body is not canonical:\n in  %x\n out %x", b, reenc)
		}
	})
}
