package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"ihc/internal/topology"
)

// recObserver records the full observed stream.
type recObserver struct {
	hops       []HopEvent
	deliveries []Delivery
}

func (o *recObserver) OnHop(h HopEvent)     { o.hops = append(o.hops, h) }
func (o *recObserver) OnDeliver(d Delivery) { o.deliveries = append(o.deliveries, d) }

// digestHops hashes every field of every hop in stream order.
func digestHops(hops []HopEvent) string {
	h := sha256.New()
	var buf [82]byte
	for _, e := range hops {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.ID.Source))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.ID.Channel))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.ID.Seq))
		binary.LittleEndian.PutUint64(buf[24:], uint64(e.Hop))
		binary.LittleEndian.PutUint64(buf[32:], uint64(e.From))
		binary.LittleEndian.PutUint64(buf[40:], uint64(e.To))
		binary.LittleEndian.PutUint64(buf[48:], uint64(e.Arc))
		binary.LittleEndian.PutUint64(buf[56:], uint64(e.HeaderDepart))
		binary.LittleEndian.PutUint64(buf[64:], uint64(e.TailArrive))
		binary.LittleEndian.PutUint64(buf[72:], uint64(e.Flits))
		buf[80] = byte(e.Kind)
		buf[81] = 0
		if e.Blocked {
			buf[81] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The observer sees exactly the performed hops (matching the per-hop
// counters and a digest of the hop stream recorded when the engine
// still kept a per-hop trace of its own) and exactly the logged
// deliveries, and its presence does not perturb the run.
func TestObserverSeesAllHopsAndDeliveries(t *testing.T) {
	g := topology.MustCycle(12)
	p := dedicated(2)
	specs := []PacketSpec{
		{ID: PacketID{Source: 0, Channel: 0}, Route: pathRoute(11), Tee: true},
		{ID: PacketID{Source: 0, Channel: 1}, Route: pathRoute(7), Inject: 40},
		{ID: PacketID{Source: 0, Channel: 2, Seq: 3}, Route: pathRoute(5), Inject: 80, Flits: 5},
	}
	base := mustRun(t, g, p, specs, Options{})

	obs := &recObserver{}
	var log []Delivery
	res := mustRun(t, g, p, specs, Options{Log: &log, Observe: obs})

	if *res != *base {
		t.Fatalf("observer perturbed the run: %+v vs %+v", res, base)
	}

	performed := res.Injections + res.CutThroughs + res.BufferedHops + res.Stalls
	if len(obs.hops) != performed {
		t.Fatalf("observed %d hops, counters say %d performed", len(obs.hops), performed)
	}
	if len(obs.deliveries) != res.Deliveries {
		t.Fatalf("observed %d deliveries, result says %d", len(obs.deliveries), res.Deliveries)
	}
	const wantHops = "70685be7f8a7851b83b2fa00934b17b0350b3d4bfe2c0abfcda6a7d1ed5353fa"
	if got := digestHops(obs.hops); got != wantHops {
		t.Fatalf("hop stream digest %s, want %s", got, wantHops)
	}

	// Each observed hop continues its packet's route, carries the right
	// arc id and the effective flit count.
	seen := map[PacketID]int{}
	arcs := g.Arcs()
	for _, h := range obs.hops {
		k := seen[h.ID]
		seen[h.ID] = k + 1
		if h.Hop != k || h.From != topology.Node(k) || h.To != topology.Node(k+1) {
			t.Fatalf("packet %v: observed hop %d as %+v", h.ID, k, h)
		}
		if h.Arc < 0 || h.Arc >= len(arcs) || arcs[h.Arc].From != h.From || arcs[h.Arc].To != h.To {
			t.Fatalf("packet %v hop %d: arc id %d does not resolve to %d→%d", h.ID, k, h.Arc, h.From, h.To)
		}
		wantFlits := p.Mu
		if h.ID.Channel == 2 {
			wantFlits = 5
		}
		if h.Flits != wantFlits {
			t.Fatalf("packet %v hop %d: flits = %d, want %d", h.ID, k, h.Flits, wantFlits)
		}
	}
	for _, s := range specs {
		if seen[s.ID] != len(s.Route)-1 {
			t.Fatalf("packet %v: observed %d hops, route has %d", s.ID, seen[s.ID], len(s.Route)-1)
		}
	}
	if !slices.Equal(obs.deliveries, log) {
		t.Fatalf("observed deliveries differ from the log:\n%+v\n%+v", obs.deliveries, log)
	}
}

// A FaultDrop cancels the hop before the link is acquired; the observer
// must never see the canceled hop nor any downstream delivery of the
// killed copy, and corrupted copies must be flagged on OnDeliver.
func TestObserverSkipsDroppedHops(t *testing.T) {
	g := topology.MustCycle(12)
	p := dedicated(2)
	specs := []PacketSpec{
		{ID: PacketID{Source: 0, Channel: 0}, Route: pathRoute(6), Tee: true},
		{ID: PacketID{Source: 0, Channel: 1}, Route: pathRoute(6), Inject: 1000, Tee: true},
	}
	hook := hookFunc(func(id PacketID, hop int, from, to topology.Node, depart Time) FaultAction {
		if id.Channel == 0 && hop == 3 {
			return FaultDrop
		}
		if id.Channel == 1 && hop == 2 {
			return FaultCorrupt
		}
		return FaultNone
	})
	obs := &recObserver{}
	res := mustRun(t, g, p, specs, Options{Fault: hook, Observe: obs})
	if res.FaultDrops != 1 || res.FaultTaints != 1 {
		t.Fatalf("drops=%d taints=%d, want 1 and 1", res.FaultDrops, res.FaultTaints)
	}
	for _, h := range obs.hops {
		if h.ID.Channel == 0 && h.Hop >= 3 {
			t.Fatalf("observed hop %d of the dropped packet", h.Hop)
		}
	}
	if len(obs.deliveries) != res.Deliveries {
		t.Fatalf("observed %d deliveries, result says %d", len(obs.deliveries), res.Deliveries)
	}
	for _, d := range obs.deliveries {
		wantCorrupt := d.ID.Channel == 1 && d.Node >= 3
		if d.Corrupted != wantCorrupt {
			t.Fatalf("delivery %+v: corrupted = %v, want %v", d, d.Corrupted, wantCorrupt)
		}
	}
}
