package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"ihc/internal/observe"
	"ihc/internal/simnet"
)

// runWithMetrics runs one experiment with a shared metrics aggregate
// attached at GOMAXPROCS k and returns its snapshot serialized to JSON.
func runWithMetrics(t *testing.T, id string, k int) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	sh := observe.NewShared()
	atWidth(k, func() { _, err = e.Run(Config{Quick: true, Metrics: sh}) })
	if err != nil {
		t.Fatalf("%s with metrics: %v", id, err)
	}
	buf, err := json.Marshal(sh.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// The observability invariant mirrors the output one: per-point metric
// sinks absorbed into Config.Metrics yield a snapshot independent of the
// pool width.
func TestMetricsWorkerCountIndependent(t *testing.T) {
	for _, id := range []string{"contention", "table2"} {
		seq := runWithMetrics(t, id, 1)
		if bytes.Contains(seq, []byte(`"hops":0,`)) {
			t.Fatalf("%s: sequential metrics snapshot saw no hops", id)
		}
		for _, k := range []int{2, 4} {
			got := runWithMetrics(t, id, k)
			if !bytes.Equal(seq, got) {
				t.Fatalf("%s: metrics snapshot differs at GOMAXPROCS %d\nseq: %s\ngot: %s", id, k, seq, got)
			}
		}
	}
}

// counting trace sink with plain ints: the pool runs points one at a
// time under a trace sink, so -race stays quiet.
type countTrace struct {
	hops, dels int
}

func (c *countTrace) OnHop(simnet.HopEvent) { c.hops++ }
func (c *countTrace) OnDeliver(d simnet.Delivery) {
	c.dels++
}

// A trace sink makes the pool serial, even at GOMAXPROCS 8 — the
// unsynchronized counter above is safe and must see every hop of the
// run.
func TestTraceForcesSequentialPool(t *testing.T) {
	e, err := ByID("contention")
	if err != nil {
		t.Fatal(err)
	}
	tr := &countTrace{}
	sh := observe.NewShared()
	atWidth(8, func() { _, err = e.Run(Config{Quick: true, Trace: tr, Metrics: sh}) })
	if err != nil {
		t.Fatal(err)
	}
	if tr.hops == 0 || tr.dels == 0 {
		t.Fatalf("trace sink saw %d hops, %d deliveries", tr.hops, tr.dels)
	}
	s := sh.Snapshot()
	if int(s.Hops) != tr.hops || int(s.Deliveries) != tr.dels {
		t.Fatalf("trace saw %d/%d, metrics aggregated %d/%d — sinks out of sync",
			tr.hops, tr.dels, s.Hops, s.Deliveries)
	}
}
