package observe

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StreamGauges is the continuous-streaming counterpart of Metrics: a
// lock-free (atomics plus one latency reservoir mutex) sink the
// internal/stream nodes publish admission, backpressure, and epoch
// progress into while the service runs. All counters are deltas, so a
// single shared sink across every node of a cluster aggregates
// cluster-wide totals — queue depth is maintained by +1/-1 adjustments
// and sums correctly across nodes. The one per-node figure is peak
// inflight: the most live epochs any one node held open at once, which
// stream.MaxInflight caps.
//
// The zero value is ready to use; a nil *StreamGauges is a valid no-op
// sink (every method checks the receiver), mirroring the engine's
// zero-cost-when-nil Observer discipline.
type StreamGauges struct {
	submittedHigh atomic.Int64
	submittedLow  atomic.Int64
	shedHigh      atomic.Int64
	shedLow       atomic.Int64
	queueDepth    atomic.Int64
	queueBytes    atomic.Int64
	peakQueue     atomic.Int64
	peakInflight  atomic.Int64

	epochsCompleted atomic.Int64
	epochsFailed    atomic.Int64
	epochsCaughtUp  atomic.Int64
	payloads        atomic.Int64
	payloadBytes    atomic.Int64
	repaired        atomic.Int64
	naks            atomic.Int64
	joins           atomic.Int64

	mu        sync.Mutex
	latencies []time.Duration
	started   time.Time
	ended     time.Time
}

// latencyReservoirCap bounds the per-epoch latency sample buffer; a
// soak that outruns it keeps the first samples (the steady state it
// measures is reached long before the cap).
const latencyReservoirCap = 1 << 16

// Submitted counts one client payload admitted into an ingress queue.
func (g *StreamGauges) Submitted(high bool, size int) {
	if g == nil {
		return
	}
	if high {
		g.submittedHigh.Add(1)
	} else {
		g.submittedLow.Add(1)
	}
	g.queueBytes.Add(int64(size))
	d := g.queueDepth.Add(1)
	peakMax(&g.peakQueue, d)
}

// Shed counts one client payload refused with ErrShed.
func (g *StreamGauges) Shed(high bool) {
	if g == nil {
		return
	}
	if high {
		g.shedHigh.Add(1)
	} else {
		g.shedLow.Add(1)
	}
}

// Drained counts payloads leaving an ingress queue into an epoch batch.
func (g *StreamGauges) Drained(count, bytes int) {
	if g == nil || count == 0 {
		return
	}
	g.queueDepth.Add(int64(-count))
	g.queueBytes.Add(int64(-bytes))
}

// LiveEpochs records one node's count of live open epochs (neither
// stalled nor catching up), which the node reports whenever it changes;
// the gauge keeps the largest count any node reported.
func (g *StreamGauges) LiveEpochs(n int) {
	if g == nil {
		return
	}
	peakMax(&g.peakInflight, int64(n))
}

// EpochClosed records one epoch leaving the open set. completed
// distinguishes the γ-copy happy path from an exhausted round; latency
// is scheduled-start→local-completion (completed epochs only, and only
// when non-negative — catch-up epochs report their own counter).
func (g *StreamGauges) EpochClosed(completed bool, latency time.Duration) {
	if g == nil {
		return
	}
	if !completed {
		g.epochsFailed.Add(1)
		return
	}
	g.epochsCompleted.Add(1)
	if latency < 0 {
		return
	}
	g.mu.Lock()
	if g.started.IsZero() {
		g.started = time.Now().Add(-latency)
	}
	g.ended = time.Now()
	if len(g.latencies) < latencyReservoirCap {
		g.latencies = append(g.latencies, latency)
	}
	g.mu.Unlock()
}

// CaughtUp counts an epoch recovered after a rejoin (late completion of
// a round the node was dead for).
func (g *StreamGauges) CaughtUp() {
	if g == nil {
		return
	}
	g.epochsCaughtUp.Add(1)
}

// Delivered counts client payloads surfaced to the application on one
// node at epoch completion.
func (g *StreamGauges) Delivered(count, bytes int) {
	if g == nil {
		return
	}
	g.payloads.Add(int64(count))
	g.payloadBytes.Add(int64(bytes))
}

// Repaired counts a copy recovered via the pull path; Nak a pull sent;
// Join a rejoin handshake frame sent.
func (g *StreamGauges) Repaired() {
	if g == nil {
		return
	}
	g.repaired.Add(1)
}

func (g *StreamGauges) Nak() {
	if g == nil {
		return
	}
	g.naks.Add(1)
}

func (g *StreamGauges) Join() {
	if g == nil {
		return
	}
	g.joins.Add(1)
}

func peakMax(peak *atomic.Int64, v int64) {
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StreamSnapshot is a JSON-serializable view of a StreamGauges.
type StreamSnapshot struct {
	SubmittedHigh   int64 `json:"submitted_high"`
	SubmittedLow    int64 `json:"submitted_low"`
	ShedHigh        int64 `json:"shed_high"`
	ShedLow         int64 `json:"shed_low"`
	QueueDepth      int64 `json:"queue_depth"`
	QueueBytes      int64 `json:"queue_bytes"`
	PeakQueueDepth  int64 `json:"peak_queue_depth"`
	PeakInflight    int64 `json:"peak_inflight"` // most live epochs one node held open at once
	EpochsCompleted int64 `json:"epochs_completed"`
	EpochsFailed    int64 `json:"epochs_failed"`
	EpochsCaughtUp  int64 `json:"epochs_caught_up"`
	Payloads        int64 `json:"payloads_delivered"`
	PayloadBytes    int64 `json:"payload_bytes_delivered"`
	Repaired        int64 `json:"repaired"`
	Naks            int64 `json:"naks"`
	Joins           int64 `json:"joins"`
	// Latency percentiles over completed per-node epoch rounds
	// (scheduled start → local γ-copy completion), nanoseconds.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`
	// Throughput over the observed completion span.
	PayloadsPerSec float64 `json:"payloads_per_sec"`
	BytesPerSec    float64 `json:"bytes_per_sec"`
}

// Snapshot renders the gauges. Safe to call concurrently with updates;
// the reservoir is copied before sorting.
func (g *StreamGauges) Snapshot() StreamSnapshot {
	if g == nil {
		return StreamSnapshot{}
	}
	s := StreamSnapshot{
		SubmittedHigh:   g.submittedHigh.Load(),
		SubmittedLow:    g.submittedLow.Load(),
		ShedHigh:        g.shedHigh.Load(),
		ShedLow:         g.shedLow.Load(),
		QueueDepth:      g.queueDepth.Load(),
		QueueBytes:      g.queueBytes.Load(),
		PeakQueueDepth:  g.peakQueue.Load(),
		PeakInflight:    g.peakInflight.Load(),
		EpochsCompleted: g.epochsCompleted.Load(),
		EpochsFailed:    g.epochsFailed.Load(),
		EpochsCaughtUp:  g.epochsCaughtUp.Load(),
		Payloads:        g.payloads.Load(),
		PayloadBytes:    g.payloadBytes.Load(),
		Repaired:        g.repaired.Load(),
		Naks:            g.naks.Load(),
		Joins:           g.joins.Load(),
	}
	g.mu.Lock()
	lat := append([]time.Duration(nil), g.latencies...)
	span := g.ended.Sub(g.started)
	g.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		s.LatencyP50 = lat[pctIdx(len(lat), 0.50)]
		s.LatencyP90 = lat[pctIdx(len(lat), 0.90)]
		s.LatencyP99 = lat[pctIdx(len(lat), 0.99)]
		s.LatencyMax = lat[len(lat)-1]
	}
	if span > 0 {
		s.PayloadsPerSec = float64(s.Payloads) / span.Seconds()
		s.BytesPerSec = float64(s.PayloadBytes) / span.Seconds()
	}
	return s
}

func pctIdx(n int, q float64) int {
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// Summary is a human-readable digest for soak reporting.
func (s StreamSnapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epochs: %d completed, %d failed, %d caught up after rejoin; peak inflight %d per node\n",
		s.EpochsCompleted, s.EpochsFailed, s.EpochsCaughtUp, s.PeakInflight)
	fmt.Fprintf(&b, "ingress: %d high / %d low admitted, %d high / %d low shed, peak queue depth %d\n",
		s.SubmittedHigh, s.SubmittedLow, s.ShedHigh, s.ShedLow, s.PeakQueueDepth)
	fmt.Fprintf(&b, "delivered: %d payloads (%d bytes), %.1f payloads/s, %.0f B/s\n",
		s.Payloads, s.PayloadBytes, s.PayloadsPerSec, s.BytesPerSec)
	fmt.Fprintf(&b, "round latency p50/p90/p99/max = %s/%s/%s/%s; repair: %d pulls answered, %d NAKs, %d JOINs\n",
		s.LatencyP50, s.LatencyP90, s.LatencyP99, s.LatencyMax, s.Repaired, s.Naks, s.Joins)
	return b.String()
}
