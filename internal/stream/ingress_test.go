package stream

import (
	"errors"
	"testing"
	"time"

	"ihc/internal/observe"
)

// manualClock lets the token-bucket tests advance time explicitly.
type manualClock struct{ t time.Time }

func (m *manualClock) now() time.Time { return m.t }

func newTestIngress(cfg IngressConfig) (*Ingress, *manualClock) {
	mc := &manualClock{t: time.Unix(1000, 0)}
	in := NewIngress(cfg, nil)
	in.now = mc.now
	return in, mc
}

func TestIngressQueueBoundsShed(t *testing.T) {
	in, _ := newTestIngress(IngressConfig{})
	for i := 0; i < queueCap; i++ {
		if err := in.Submit([]byte{byte(i)}, High); err != nil {
			t.Fatalf("high %d: %v", i, err)
		}
		if err := in.Submit([]byte{byte(i)}, Low); err != nil {
			t.Fatalf("low %d: %v", i, err)
		}
	}
	if err := in.Submit([]byte{9}, High); !errors.Is(err, ErrShed) {
		t.Fatalf("full high queue returned %v, want ErrShed", err)
	}
	if err := in.Submit([]byte{9}, Low); !errors.Is(err, ErrShed) {
		t.Fatalf("full low queue returned %v, want ErrShed", err)
	}
	h, l := in.Depth()
	if h != queueCap || l != queueCap {
		t.Fatalf("depth (%d,%d), want (%d,%d)", h, l, queueCap, queueCap)
	}
}

func TestIngressTokenBucketShedsLowNotHigh(t *testing.T) {
	in, mc := newTestIngress(IngressConfig{Rate: 10, Burst: 2})
	// Burst allows 2 immediately; the third low is shed.
	for i := 0; i < 2; i++ {
		if err := in.Submit([]byte{byte(i)}, Low); err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
	}
	if err := in.Submit([]byte{9}, Low); !errors.Is(err, ErrShed) {
		t.Fatalf("rate-limited low returned %v, want ErrShed", err)
	}
	// High bypasses the bucket entirely.
	if err := in.Submit([]byte{9}, High); err != nil {
		t.Fatalf("high under empty bucket: %v", err)
	}
	// A 100ms refill at 10/s buys exactly one more token.
	mc.t = mc.t.Add(100 * time.Millisecond)
	if err := in.Submit([]byte{10}, Low); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := in.Submit([]byte{11}, Low); !errors.Is(err, ErrShed) {
		t.Fatal("second post-refill low admitted; bucket should hold one token")
	}
}

func TestIngressDrainHighFirstWithinBudget(t *testing.T) {
	in, _ := newTestIngress(IngressConfig{})
	// Three items fill the batch budget; a fourth does not fit.
	size := (maxBatchBytes-batchHdr)/3 - itemOverhead
	for i := 0; i < 3; i++ {
		if err := in.Submit(make([]byte, size), Low); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Submit(make([]byte, size), High); err != nil {
		t.Fatal(err)
	}
	items := in.drain(false)
	if len(items) != 3 {
		t.Fatalf("drained %d items into a 3-item budget", len(items))
	}
	if !items[0].High {
		t.Fatal("high-priority item not drained first")
	}
	// The item that did not fit stays queued for the next epoch.
	h, l := in.Depth()
	if h != 0 || l != 1 {
		t.Fatalf("post-drain depth (%d,%d), want (0,1)", h, l)
	}
	if next := in.drain(false); len(next) != 1 {
		t.Fatalf("second drain got %d items, want the leftover", len(next))
	}
}

// TestIngressGaugesCount checks the gauges through a stream's last
// drain, after which Submit refuses both classes with ErrClosed and
// counts nothing.
func TestIngressGaugesCount(t *testing.T) {
	g := &observe.StreamGauges{}
	in := NewIngress(IngressConfig{}, g)
	for i := 0; i <= queueCap; i++ {
		_ = in.Submit([]byte{1}, High) // the last one is shed
	}
	_ = in.Submit([]byte{3}, Low)
	in.drain(true)
	for _, pri := range []Priority{High, Low} {
		if err := in.Submit([]byte{4}, pri); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after the last drain returned %v, want ErrClosed", err)
		}
	}
	s := g.Snapshot()
	if s.SubmittedHigh != queueCap || s.SubmittedLow != 1 || s.ShedHigh != 1 {
		t.Fatalf("snapshot %+v: want %d high, 1 low submitted, 1 high shed", s, queueCap)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", s.QueueDepth)
	}
}
