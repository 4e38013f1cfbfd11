package stream

import (
	"errors"
	"sync"
	"time"

	"ihc/internal/observe"
)

// ErrShed is the admission-control verdict: the service is refusing
// this payload *now*, explicitly, instead of queueing it unboundedly.
// Callers may retry later; nothing was enqueued.
var ErrShed = errors.New("stream: payload shed (admission control)")

// ErrClosed is Submit's verdict once a bounded stream's last epoch has
// drained the queue: no later batch would carry the payload, so it is
// refused, and neither counted nor shed.
var ErrClosed = errors.New("stream: ingress closed after the last epoch")

// Priority classes. High-priority traffic bypasses the token bucket
// and is bounded only by its queue capacity; low-priority traffic is
// rate-limited and is what overload sheds first.
type Priority uint8

const (
	Low Priority = iota
	High
)

const (
	// queueCap bounds each priority class's queue (items).
	queueCap = 1024
	// maxBatchBytes bounds one epoch batch's encoded size: 32 KiB,
	// comfortably inside transport.MaxFrame with the frame header and
	// the MAC.
	maxBatchBytes = 32 << 10
)

// IngressConfig shapes one node's client-payload admission.
type IngressConfig struct {
	// Rate is the low-priority admission rate in payloads/second via a
	// token bucket of depth Burst; <= 0 disables rate limiting (queue
	// bounds still apply). Burst defaults to Rate.
	Rate, Burst float64
}

// Ingress is one node's bounded, two-class client-payload queue.
// Submit is safe from any goroutine; drain is called by the node's
// event loop at epoch open. Backpressure is explicit: a full queue or
// an empty token bucket sheds with ErrShed instead of blocking or
// growing.
type Ingress struct {
	mu     sync.Mutex
	cfg    IngressConfig
	high   [][]byte
	low    [][]byte
	tokens float64
	last   time.Time
	closed bool
	gauges *observe.StreamGauges
	now    func() time.Time // test hook
}

// NewIngress returns an empty queue publishing into gauges (nil ok).
func NewIngress(cfg IngressConfig, gauges *observe.StreamGauges) *Ingress {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	return &Ingress{cfg: cfg, tokens: cfg.Burst, gauges: gauges, now: time.Now}
}

func (in *Ingress) refillLocked(now time.Time) {
	if in.cfg.Rate <= 0 {
		return
	}
	if !in.last.IsZero() {
		in.tokens += now.Sub(in.last).Seconds() * in.cfg.Rate
		if in.tokens > in.cfg.Burst {
			in.tokens = in.cfg.Burst
		}
	}
	in.last = now
}

// Submit admits one client payload into the queue for the next epoch
// batch, sheds it with ErrShed, or refuses it with ErrClosed after the
// last batch. The payload is referenced, not copied — callers must not
// mutate it afterwards.
func (in *Ingress) Submit(data []byte, pri Priority) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	if pri == High {
		if len(in.high) >= queueCap {
			in.gauges.Shed(true)
			return ErrShed
		}
		in.high = append(in.high, data)
		in.gauges.Submitted(true, len(data))
		return nil
	}
	in.refillLocked(in.now())
	if len(in.low) >= queueCap || (in.cfg.Rate > 0 && in.tokens < 1) {
		in.gauges.Shed(false)
		return ErrShed
	}
	if in.cfg.Rate > 0 {
		in.tokens--
	}
	in.low = append(in.low, data)
	in.gauges.Submitted(false, len(data))
	return nil
}

// Depth returns the current (high, low) queue depths.
func (in *Ingress) Depth() (high, low int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.high), len(in.low)
}

// drain packs queued payloads — high class first, then low, FIFO
// within a class — into one batch up to the configured byte budget.
// Payloads that do not fit stay queued for the next epoch. The last
// drain closes the queue to further Submits in the same critical
// section, so no payload is admitted after the last batch is cut.
func (in *Ingress) drain(last bool) []Item {
	in.mu.Lock()
	defer in.mu.Unlock()
	if last {
		in.closed = true
	}
	budget := maxBatchBytes - batchHdr
	var items []Item
	bytesOut := 0
	take := func(q *[][]byte, high bool) {
		for len(*q) > 0 && len(items) < maxBatchLen {
			d := (*q)[0]
			cost := itemOverhead + len(d)
			if cost > budget {
				return
			}
			budget -= cost
			bytesOut += len(d)
			items = append(items, Item{High: high, Data: d})
			*q = (*q)[1:]
		}
	}
	take(&in.high, true)
	take(&in.low, false)
	in.gauges.Drained(len(items), bytesOut)
	return items
}
