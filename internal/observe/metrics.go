package observe

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"ihc/internal/repair"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// histBuckets is the number of log2 buckets of the busy-interval
// histograms: bucket k counts intervals with 2^(k-1) <= ticks < 2^k
// (bucket 0 counts zero-length intervals). 24 buckets cover intervals
// up to ~8.4M ticks, far beyond any single packet transmission.
const histBuckets = 24

func histBucket(t simnet.Time) int {
	b := bits.Len64(uint64(t))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// LinkMetrics aggregates one directed link's observed traffic.
type LinkMetrics struct {
	From, To    topology.Node
	Hops        int
	Busy        simnet.Time // total occupancy (sum of busy intervals)
	MaxInterval simnet.Time // longest single busy interval
	Hist        [histBuckets]int64
}

// linkKey identifies a link by arc index AND endpoints: arc indices are
// per-topology, so an aggregate spanning several graphs (a multi-network
// experiment) must not conflate two graphs' arc k into one row — and
// must not let whichever worker reported first pick the endpoint labels.
type linkKey struct {
	arc      int
	from, to topology.Node
}

// NodeMetrics aggregates one node's switching behaviour and FIFO
// pressure. PeakFIFOFlits is the high-water mark of the occupancy a
// single hop implies at this node's receiving FIFO: a cut-through
// holds only the header flit while downstream transmission drains the
// packet, a buffered or stalled hop holds the whole packet.
type NodeMetrics struct {
	Injections    int
	CutThroughs   int
	BufferedHops  int
	Stalls        int
	PeakFIFOFlits int
}

// StageMetrics aggregates the data packets of one IHC stage (Seq).
type StageMetrics struct {
	Injections int
	Deliveries int
	Latency    []simnet.Time // per delivery: delivery time - injection departure
}

// pktState is per-packet in-flight bookkeeping (latency pairing).
type pktState struct {
	inject simnet.Time // hop-0 header departure
}

// Metrics is a mergeable observability sink: attach one per worker
// (simnet.Options.Observe), then combine with Merge/Shared.Absorb.
// Aggregation is commutative and associative over whole packets, so
// any merge order of per-worker sinks yields an identical Snapshot —
// the determinism FuzzMetricsMerge locks in.
//
// A Metrics must only be used by one goroutine at a time; reusing one
// across sequential runs is fine (packet IDs restart cleanly at each
// re-injection).
type Metrics struct {
	links    map[linkKey]*LinkMetrics
	nodes    map[topology.Node]*NodeMetrics
	stages   map[int]*StageMetrics
	inflight map[simnet.PacketID]pktState

	hops       int
	deliveries int
	corrupted  int
	naks       int
	retrans    int
	nakHops    int

	started    bool
	start, end simnet.Time
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		links:    make(map[linkKey]*LinkMetrics),
		nodes:    make(map[topology.Node]*NodeMetrics),
		stages:   make(map[int]*StageMetrics),
		inflight: make(map[simnet.PacketID]pktState),
	}
}

func (m *Metrics) span(t simnet.Time) {
	if !m.started || t < m.start {
		m.start = t
		m.started = true
	}
	if t > m.end {
		m.end = t
	}
}

// OnHop implements simnet.Observer.
func (m *Metrics) OnHop(h simnet.HopEvent) {
	m.hops++
	m.span(h.HeaderDepart)
	m.span(h.TailArrive)

	lk := linkKey{arc: h.Arc, from: h.From, to: h.To}
	lm := m.links[lk]
	if lm == nil {
		lm = &LinkMetrics{From: h.From, To: h.To}
		m.links[lk] = lm
	}
	busy := h.TailArrive - h.HeaderDepart
	lm.Hops++
	lm.Busy += busy
	if busy > lm.MaxInterval {
		lm.MaxInterval = busy
	}
	lm.Hist[histBucket(busy)]++

	nm := m.nodes[h.From]
	if nm == nil {
		nm = &NodeMetrics{}
		m.nodes[h.From] = nm
	}
	occ := 0
	switch h.Kind {
	case simnet.HopInject:
		nm.Injections++
		// The source's own send queue is not a network FIFO.
	case simnet.HopCut:
		nm.CutThroughs++
		occ = 1
	case simnet.HopBuffer:
		nm.BufferedHops++
		occ = h.Flits
	case simnet.HopStall:
		nm.Stalls++
		occ = h.Flits
	}
	if occ > nm.PeakFIFOFlits {
		nm.PeakFIFOFlits = occ
	}

	switch repair.Classify(h.ID) {
	case repair.TrafficData:
		if h.Hop == 0 {
			m.inflight[h.ID] = pktState{inject: h.HeaderDepart}
			sm := m.stage(h.ID.Seq)
			sm.Injections++
		}
	case repair.TrafficNak:
		m.nakHops++
		if h.Hop == 0 {
			m.naks++
		}
	case repair.TrafficRetransmission:
		if h.Hop == 0 {
			m.retrans++
		}
	}
}

// OnDeliver implements simnet.Observer.
func (m *Metrics) OnDeliver(d simnet.Delivery) {
	m.deliveries++
	m.span(d.At)
	if d.Corrupted {
		m.corrupted++
	}
	if repair.Classify(d.ID) != repair.TrafficData {
		return
	}
	if st, ok := m.inflight[d.ID]; ok {
		sm := m.stage(d.ID.Seq)
		sm.Deliveries++
		sm.Latency = append(sm.Latency, d.At-st.inject)
	}
}

func (m *Metrics) stage(seq int) *StageMetrics {
	sm := m.stages[seq]
	if sm == nil {
		sm = &StageMetrics{}
		m.stages[seq] = sm
	}
	return sm
}

// Merge folds other into m. Aggregates are sums, maxima, and sample
// concatenations, so merging per-worker sinks in any order produces
// the same Snapshot as long as each packet's events all went to one
// sink (the harness's per-point attachment guarantees that).
func (m *Metrics) Merge(other *Metrics) {
	for lk, o := range other.links {
		lm := m.links[lk]
		if lm == nil {
			lm = &LinkMetrics{From: o.From, To: o.To}
			m.links[lk] = lm
		}
		lm.Hops += o.Hops
		lm.Busy += o.Busy
		if o.MaxInterval > lm.MaxInterval {
			lm.MaxInterval = o.MaxInterval
		}
		for i, c := range o.Hist {
			lm.Hist[i] += c
		}
	}
	for v, o := range other.nodes {
		nm := m.nodes[v]
		if nm == nil {
			nm = &NodeMetrics{}
			m.nodes[v] = nm
		}
		nm.Injections += o.Injections
		nm.CutThroughs += o.CutThroughs
		nm.BufferedHops += o.BufferedHops
		nm.Stalls += o.Stalls
		if o.PeakFIFOFlits > nm.PeakFIFOFlits {
			nm.PeakFIFOFlits = o.PeakFIFOFlits
		}
	}
	for seq, o := range other.stages {
		sm := m.stage(seq)
		sm.Injections += o.Injections
		sm.Deliveries += o.Deliveries
		sm.Latency = append(sm.Latency, o.Latency...)
	}
	for id, st := range other.inflight {
		m.inflight[id] = st
	}
	m.hops += other.hops
	m.deliveries += other.deliveries
	m.corrupted += other.corrupted
	m.naks += other.naks
	m.retrans += other.retrans
	m.nakHops += other.nakHops
	if other.started {
		if !m.started || other.start < m.start {
			m.start = other.start
			m.started = true
		}
		if other.end > m.end {
			m.end = other.end
		}
	}
}

// LinkSnapshot is one link's aggregates in a Snapshot, utilization
// normalized by the observed span.
type LinkSnapshot struct {
	Arc         int           `json:"arc"`
	From        topology.Node `json:"from"`
	To          topology.Node `json:"to"`
	Hops        int           `json:"hops"`
	Busy        simnet.Time   `json:"busy"`
	MaxInterval simnet.Time   `json:"max_interval"`
	Utilization float64       `json:"utilization"`
	Hist        []int64       `json:"busy_hist_log2,omitempty"`
}

// NodeSnapshot is one node's aggregates in a Snapshot.
type NodeSnapshot struct {
	Node          topology.Node `json:"node"`
	Injections    int           `json:"injections"`
	CutThroughs   int           `json:"cut_throughs"`
	BufferedHops  int           `json:"buffered_hops"`
	Stalls        int           `json:"stalls"`
	PeakFIFOFlits int           `json:"peak_fifo_flits"`
}

// StageSnapshot is one stage's aggregates in a Snapshot, latency
// percentiles over its delivery samples.
type StageSnapshot struct {
	Stage      int         `json:"stage"`
	Injections int         `json:"injections"`
	Deliveries int         `json:"deliveries"`
	LatencyP50 simnet.Time `json:"latency_p50"`
	LatencyP90 simnet.Time `json:"latency_p90"`
	LatencyP99 simnet.Time `json:"latency_p99"`
	LatencyMax simnet.Time `json:"latency_max"`
}

// Snapshot is a deterministic, JSON-serializable view of a Metrics:
// links/nodes/stages in sorted key order, latency samples sorted
// before percentile extraction, so equal aggregates yield byte-equal
// encodings regardless of map iteration or merge order.
type Snapshot struct {
	Start           simnet.Time     `json:"start"`
	End             simnet.Time     `json:"end"`
	Hops            int             `json:"hops"`
	Deliveries      int             `json:"deliveries"`
	Corrupted       int             `json:"corrupted,omitempty"`
	Naks            int             `json:"naks,omitempty"`
	NakHops         int             `json:"nak_hops,omitempty"`
	Retransmissions int             `json:"retransmissions,omitempty"`
	PeakFIFOFlits   int             `json:"peak_fifo_flits"`
	MaxUtilization  float64         `json:"max_utilization"`
	Links           []LinkSnapshot  `json:"links"`
	Nodes           []NodeSnapshot  `json:"nodes"`
	Stages          []StageSnapshot `json:"stages"`
}

func percentile(sorted []simnet.Time, q float64) simnet.Time {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Snapshot renders the current aggregates. The receiver is not
// modified (latency samples are copied before sorting), so snapshots
// may be taken mid-campaign.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Start:           m.start,
		End:             m.end,
		Hops:            m.hops,
		Deliveries:      m.deliveries,
		Corrupted:       m.corrupted,
		Naks:            m.naks,
		NakHops:         m.nakHops,
		Retransmissions: m.retrans,
	}
	span := m.end - m.start

	keys := make([]linkKey, 0, len(m.links))
	for lk := range m.links {
		keys = append(keys, lk)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.arc != b.arc {
			return a.arc < b.arc
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	for _, lk := range keys {
		lm := m.links[lk]
		ls := LinkSnapshot{
			Arc: lk.arc, From: lm.From, To: lm.To,
			Hops: lm.Hops, Busy: lm.Busy, MaxInterval: lm.MaxInterval,
		}
		if span > 0 {
			ls.Utilization = float64(lm.Busy) / float64(span)
		}
		hi := len(lm.Hist)
		for hi > 0 && lm.Hist[hi-1] == 0 {
			hi--
		}
		if hi > 0 {
			ls.Hist = append([]int64(nil), lm.Hist[:hi]...)
		}
		if ls.Utilization > s.MaxUtilization {
			s.MaxUtilization = ls.Utilization
		}
		s.Links = append(s.Links, ls)
	}

	nodes := make([]int, 0, len(m.nodes))
	for v := range m.nodes {
		nodes = append(nodes, int(v))
	}
	sort.Ints(nodes)
	for _, v := range nodes {
		nm := m.nodes[topology.Node(v)]
		s.Nodes = append(s.Nodes, NodeSnapshot{
			Node: topology.Node(v), Injections: nm.Injections,
			CutThroughs: nm.CutThroughs, BufferedHops: nm.BufferedHops,
			Stalls: nm.Stalls, PeakFIFOFlits: nm.PeakFIFOFlits,
		})
		if nm.PeakFIFOFlits > s.PeakFIFOFlits {
			s.PeakFIFOFlits = nm.PeakFIFOFlits
		}
	}

	seqs := make([]int, 0, len(m.stages))
	for seq := range m.stages {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		sm := m.stages[seq]
		lat := append([]simnet.Time(nil), sm.Latency...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var maxLat simnet.Time
		if len(lat) > 0 {
			maxLat = lat[len(lat)-1]
		}
		s.Stages = append(s.Stages, StageSnapshot{
			Stage: seq, Injections: sm.Injections, Deliveries: sm.Deliveries,
			LatencyP50: percentile(lat, 0.50),
			LatencyP90: percentile(lat, 0.90),
			LatencyP99: percentile(lat, 0.99),
			LatencyMax: maxLat,
		})
	}
	return s
}

// Summary is a human-readable digest for command-line reporting.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span [%d,%d] ticks: %d hops, %d deliveries over %d links / %d nodes\n",
		s.Start, s.End, s.Hops, s.Deliveries, len(s.Links), len(s.Nodes))
	fmt.Fprintf(&b, "peak link utilization %.3f, peak FIFO occupancy %d flits\n",
		s.MaxUtilization, s.PeakFIFOFlits)
	if s.Naks+s.Retransmissions > 0 {
		fmt.Fprintf(&b, "repair traffic: %d NAKs (%d hops), %d retransmissions\n",
			s.Naks, s.NakHops, s.Retransmissions)
	}
	if s.Corrupted > 0 {
		fmt.Fprintf(&b, "corrupted deliveries: %d\n", s.Corrupted)
	}
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "stage %d: %d injections, %d deliveries, latency p50/p90/p99/max = %d/%d/%d/%d\n",
			st.Stage, st.Injections, st.Deliveries,
			st.LatencyP50, st.LatencyP90, st.LatencyP99, st.LatencyMax)
	}
	return b.String()
}

// Shared is a mutex-guarded aggregate of per-worker Metrics sinks —
// the observability counterpart of the harness's RunStats. Workers
// each feed a private Metrics (no locking on the hot path) and Absorb
// it when done; Shared also implements simnet.Observer directly for
// single-goroutine callers that want one sink end to end.
type Shared struct {
	mu  sync.Mutex
	agg *Metrics
}

// NewShared returns an empty shared aggregate.
func NewShared() *Shared { return &Shared{agg: NewMetrics()} }

// Absorb merges a worker's sink into the aggregate.
func (s *Shared) Absorb(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg.Merge(m)
}

// Snapshot renders the aggregate collected so far.
func (s *Shared) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg.Snapshot()
}

// OnHop implements simnet.Observer (locked; for single-worker use).
func (s *Shared) OnHop(h simnet.HopEvent) {
	s.mu.Lock()
	s.agg.OnHop(h)
	s.mu.Unlock()
}

// OnDeliver implements simnet.Observer (locked; for single-worker use).
func (s *Shared) OnDeliver(d simnet.Delivery) {
	s.mu.Lock()
	s.agg.OnDeliver(d)
	s.mu.Unlock()
}
