package stream

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	cases := [][]Item{
		nil, // heartbeat
		{{High: true, Data: []byte("urgent")}},
		{{Data: []byte("a")}, {High: true, Data: []byte("b")}, {Data: nil}},
		{{Data: bytes.Repeat([]byte{0xAB}, 1000)}},
	}
	for i, items := range cases {
		b, err := EncodeBatch(items)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if len(b) != BatchBytes(lensOf(items)) {
			t.Fatalf("case %d: BatchBytes predicted %d, encoded %d", i, BatchBytes(lensOf(items)), len(b))
		}
		got, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(got) != len(items) {
			t.Fatalf("case %d: %d items round-tripped to %d", i, len(items), len(got))
		}
		for j := range got {
			if got[j].High != items[j].High || !bytes.Equal(got[j].Data, items[j].Data) {
				t.Fatalf("case %d item %d: got %+v want %+v", i, j, got[j], items[j])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { batchCount(b) }); allocs != 0 {
			t.Fatalf("case %d: batchCount allocated %.0f times", i, allocs)
		}
	}
}

func lensOf(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = len(it.Data)
	}
	return out
}

func TestBatchDecodeRejectsCorrupt(t *testing.T) {
	good, err := EncodeBatch([]Item{{Data: []byte("hello")}, {High: true, Data: []byte("world")}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		{0x01},             // shorter than the header
		good[:len(good)-1], // truncated payload
		append(append([]byte(nil), good...), 0x00), // trailing byte
	}
	// Lying count.
	lie := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(lie, 40)
	bad = append(bad, lie)
	// Length pointing past the buffer.
	lie2 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(lie2[3:], 60000)
	bad = append(bad, lie2)
	// Unknown flag bits.
	lie3 := append([]byte(nil), good...)
	lie3[2] = 0x80
	bad = append(bad, lie3)
	for i, b := range bad {
		if _, err := DecodeBatch(b); err == nil {
			t.Fatalf("case %d: corrupt batch decoded cleanly", i)
		}
	}
}

func TestBatchEncodeLimits(t *testing.T) {
	tooMany := make([]Item, maxBatchLen+1)
	if _, err := EncodeBatch(tooMany); err == nil {
		t.Fatal("oversized batch encoded")
	}
	if _, err := EncodeBatch([]Item{{Data: make([]byte, 1<<16)}}); err == nil {
		t.Fatal("oversized item encoded")
	}
}

// FuzzBatchCount checks the count helper against DecodeBatch on
// arbitrary bytes: it fails exactly when DecodeBatch fails, and
// otherwise gives the same item count and data byte total.
func FuzzBatchCount(f *testing.F) {
	good, err := EncodeBatch([]Item{{Data: []byte("hello")}, {High: true, Data: []byte("world")}, {}})
	if err != nil {
		f.Fatal(err)
	}
	heartbeat, _ := EncodeBatch(nil)
	f.Add(good)
	f.Add(heartbeat)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte("not a batch"))
	f.Fuzz(func(t *testing.T, b []byte) {
		items, decErr := DecodeBatch(b)
		n, size, err := batchCount(b)
		if (err != nil) != (decErr != nil) {
			t.Fatalf("batchCount error %v, DecodeBatch error %v", err, decErr)
		}
		if err != nil {
			return
		}
		want := 0
		for _, it := range items {
			want += len(it.Data)
		}
		if n != len(items) || size != want {
			t.Fatalf("batchCount gave %d items and %d bytes, DecodeBatch %d and %d", n, size, len(items), want)
		}
	})
}
