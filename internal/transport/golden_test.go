package transport

import (
	"encoding/hex"
	"testing"

	"ihc/internal/reliable"
	"ihc/internal/topology"
)

// goldenPayload returns n deterministic bytes (nil for n = 0, as
// DecodeFrame yields for an empty payload).
func goldenPayload(n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestFrameMACGolden pins the wire MAC byte for byte. The hex values
// were recorded from the original SignFrame, which MACed one
// contiguous canonical buffer through a freshly keyed HMAC per call;
// any change to how the MAC is computed (split writes, pooled keyed
// states) must reproduce them exactly, or nodes built from different
// versions would reject each other's frames.
func TestFrameMACGolden(t *testing.T) {
	const n = 32 // Q5: sources 0 and N−1
	kr := reliable.NewKeyring(n, 1)
	for _, tc := range []struct {
		f   Frame
		mac string
	}{
		{Frame{Kind: FrameData, Source: 0, Epoch: 0, Channel: 0, Stage: 0, Payload: goldenPayload(0)},
			"6baa6c30c065351ddd17fd9a817d4c5b73ab44c8244d9f91780292a0426223a6"},
		{Frame{Kind: FrameData, Source: n - 1, Epoch: 0xDEADBEEF, Channel: 3, Stage: 1, Payload: goldenPayload(13)},
			"bb3942bee3cf7aa0dd0d9e1fb55438bbdf2407c980fd96af2b2d142306c9e8f3"},
		{Frame{Kind: FrameData, Source: 0, Epoch: 0xDEADBEEF, Channel: 2, Stage: 0, Payload: goldenPayload(2400)},
			"4297f42ce3737aefd9f2b438d11e3c250ad51417b66194949f9508020bbcbded"},
		{Frame{Kind: FrameRepair, Source: n - 1, Epoch: 0, Channel: 1, Stage: 1, Payload: goldenPayload(2400)},
			"8848371879b5a9da9a505d0f044e3e7c9b8506fdf5e217b8f9702d0fef162cf2"},
		{Frame{Kind: FrameRepair, Source: 0, Epoch: 41, Channel: 3, Stage: 1, Payload: goldenPayload(13)},
			"d8e2aea230702565c042f437a72c0cd0c319a7f5fc8cb10c76bd73b6cb3bd4ae"},
		{Frame{Kind: FrameEpoch, Source: n - 1, Epoch: 0xDEADBEEF},
			"edcc0fb653dd094b7b3a08640c2f6ea9caf33c87a948fecf3b81ec142d63ac27"},
	} {
		f := tc.f
		if err := SignFrame(kr, &f); err != nil {
			t.Fatalf("%s src %d epoch %#x: %v", f.Kind, f.Source, f.Epoch, err)
		}
		if got := hex.EncodeToString(f.MAC); got != tc.mac {
			t.Errorf("%s src %d epoch %#x payload %d B: MAC %s, want %s",
				f.Kind, f.Source, f.Epoch, len(f.Payload), got, tc.mac)
		}
		if ok, err := VerifyFrame(kr, &f); err != nil || !ok {
			t.Errorf("%s src %d epoch %#x: pinned MAC does not verify (ok=%v err=%v)", f.Kind, f.Source, f.Epoch, ok, err)
		}
	}
	for _, tc := range []struct {
		msg reliable.Message
		mac string
	}{
		{reliable.Message{Source: 0, Payload: []byte("ihc")},
			"abc3eb808b606c053f38dc0128328f18d54dc1957fab12fb4df5c7d06b0dd9e8"},
		{reliable.Message{Source: topology.Node(n - 1), Payload: goldenPayload(2400)},
			"de45431355d9eced97e2bd78010cf61e4c9548aec79b8ea5549b67001f663b24"},
	} {
		signed, err := kr.Sign(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(signed.MAC); got != tc.mac {
			t.Errorf("Keyring.Sign src %d, %d B: MAC %s, want %s", tc.msg.Source, len(tc.msg.Payload), got, tc.mac)
		}
	}
}
