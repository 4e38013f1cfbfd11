// Command enginebench measures the simulation engine's headline
// microbenchmark — one full Q10 ATA reliable broadcast, the same
// workload as BenchmarkEngineQ10ATA — and records the numbers as JSON
// (events/sec, ns/event, allocs/event), alongside the recorded
// pre-flat-array baseline for comparison. `make bench-engine` writes
// BENCH_engine.json at the repository root.
//
// -quick measures a single run instead of a calibrated benchmark loop
// (seconds, for CI); -check compares the measurement against the values
// recorded in the -against file and exits non-zero on regression:
// allocs/event beyond 10x recorded (the engine's allocation-free event
// loop is an oracle this smoke keeps honest), or ns/event beyond
// 1+(-tolerance) of recorded (re-measured up to twice, best-of, to damp
// single-run noise). The nil-observer fast path is exactly what the
// headline numbers measure; a second measurement with a counting
// observer attached reports the per-event hook cost, and -check
// additionally requires the hooked run to stay allocation-free (the
// hook hands out stack values, never heap).
//
// Every measurement also records the live heap after the run and its
// per-node share, so the Q16 memory footprint is tracked, not guessed.
// The engine drains a large run on up to GOMAXPROCS workers, so the
// headline and the hooked run run at GOMAXPROCS 1 and scaling-series
// point w runs at GOMAXPROCS w. A point with fewer cores than workers
// is annotated "cores_limited" (its speedup measures core starvation,
// not the engine) and -check never grades speedup on it.
//
// A second workload measures the engine's repair-on path: the repaired
// fault campaign's unit of work on the BenchmarkRepairedPointQ6
// distribution (Q6, t alternating γ and γ+1 permanently broken links,
// one seeded placement each), recording ns/event and bytes and allocs
// per placement beside the same figures for the grader that rebuilt
// copy lists from an ordered delivery log, measured on the same host.
// The recorded figure is the median of three measurements; -check fails
// when bytes per placement exceed 1.5x the recorded value or ns/event
// exceeds 1+(-tolerance) of it (best of three).
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ihc/internal/campaign"
	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// metrics is one engine measurement over the Q10 ATA workload.
type metrics struct {
	EventsPerRun   int64   `json:"events_per_run"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// PeakHeapBytes is the live heap right after the run (GC'd before,
	// read after — scratch, compiled routes, and results all still
	// reachable), and HeapBytesPerNode its per-node share: the figure to
	// extrapolate a Q14/Q16 footprint from.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes,omitempty"`
	HeapBytesPerNode float64 `json:"heap_bytes_per_node,omitempty"`
}

// baseline is the seed engine (map-addressed links, container/heap event
// queue, per-packet route copies) measured on this workload before the
// flat-array rewrite.
var baseline = metrics{
	EventsPerRun:   10480640,
	EventsPerSec:   1.98e6,
	NsPerEvent:     504.7,
	AllocsPerEvent: 2.0,
	BytesPerEvent:  96.4,
}

type report struct {
	Benchmark string  `json:"benchmark"`
	Date      string  `json:"date"`
	GoVersion string  `json:"go_version"`
	GoMaxProc int     `json:"gomaxprocs"`
	Runs      int     `json:"runs"`
	Current   metrics `json:"current"`
	Baseline  metrics `json:"baseline_pre_flat_array"`
	Speedup   float64 `json:"speedup_events_per_sec"`
	// Hooked is the same workload with a counting observer attached —
	// the per-hop trace hook's worst-case cost (one interface call per
	// event, zero heap traffic). HookOverheadNs is hooked minus nil-hook
	// ns/event.
	Hooked         *metrics `json:"hooked_observer,omitempty"`
	HookOverheadNs float64  `json:"hook_overhead_ns_per_event,omitempty"`
	// Repaired is the repair-on workload (measureRepaired), and
	// RepairedBaseline the same measurement of the delivery-log grader.
	Repaired         *repairedMetrics `json:"repaired_q6,omitempty"`
	RepairedBaseline *repairedMetrics `json:"repaired_q6_baseline_delivery_log,omitempty"`
	// EngineWorkersSeries records the same workload with each stage's
	// directed cycles drained on up to each requested number of workers
	// (-engine-workers) — the multi-core scaling curve behind the
	// paper's Q16 headline. Each point re-checks that the run's event
	// count matches the one-worker measurement, so the series doubles as
	// a determinism smoke.
	EngineWorkersSeries []workerPoint `json:"engine_workers_series,omitempty"`
}

// workerPoint is one point of the engine-worker scaling series.
type workerPoint struct {
	Workers      int     `json:"workers"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	Speedup      float64 `json:"speedup_vs_sequential"`
	// GoMaxProcs is the GOMAXPROCS this point ran under: Workers.
	// CoresLimited marks points with fewer cores than workers: their
	// Speedup measures core starvation, not engine scaling, and must not
	// be graded.
	GoMaxProcs   int  `json:"gomaxprocs"`
	CoresLimited bool `json:"cores_limited,omitempty"`
}

// repairedMetrics is one measurement of the repair-on workload.
type repairedMetrics struct {
	Placements         int     `json:"placements"`
	EventsPerPlacement float64 `json:"events_per_placement"`
	NsPerEvent         float64 `json:"ns_per_event"`
	NsPerPlacement     float64 `json:"ns_per_placement"`
	BytesPerPlacement  float64 `json:"bytes_per_placement"`
	AllocsPerPlacement float64 `json:"allocs_per_placement"`
}

// repairedBaseline is the repair-on workload measured, on the host that
// recorded BENCH_engine.json's repair-on figure (2-vCPU KVM guest, Go
// 1.24.0), with the graders that appended every delivery to an ordered
// log and rebuilt per-pair copy lists from it.
var repairedBaseline = repairedMetrics{
	Placements:         100,
	EventsPerPlacement: 35407.35,
	NsPerEvent:         258.9,
	NsPerPlacement:     9.167e6,
	BytesPerPlacement:  7.462e6,
	AllocsPerPlacement: 4172.1,
}

// repairedPlacements is the repair-on workload's size: the same seeded
// placements every measurement, about a second of work.
const repairedPlacements = 100

// measureRepaired grades repairedPlacements placements of the
// BenchmarkRepairedPointQ6 distribution at GOMAXPROCS 1 (a repaired run
// holds one engine worker): each is screened for connectivity, then
// run with the repair layer beside its fault-free baseline and graded.
// A violating placement is a failure, not a measurement.
func measureRepaired(x *core.IHC) repairedMetrics {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	edges := x.Graph().Edges()
	rng := rand.New(rand.NewSource(6))
	var events int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < repairedPlacements; i++ {
		pl := rng.Perm(len(edges))[:x.Gamma()+i%2]
		out, _, err := campaign.GradeRepaired(x, edges, pl, int64(i))
		if err != nil {
			fail(err)
		}
		if out.Wrong > 0 || out.Missing > 0 {
			fail(fmt.Errorf("repaired placement %v: %d wrong, %d missing", pl, out.Wrong, out.Missing))
		}
		events += out.Events
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	k := float64(repairedPlacements)
	return repairedMetrics{
		Placements:         repairedPlacements,
		EventsPerPlacement: float64(events) / k,
		NsPerEvent:         float64(elapsed.Nanoseconds()) / float64(events),
		NsPerPlacement:     float64(elapsed.Nanoseconds()) / k,
		BytesPerPlacement:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / k,
		AllocsPerPlacement: float64(ms1.Mallocs-ms0.Mallocs) / k,
	}
}

// parseWorkerList parses the -engine-workers flag: a comma-separated
// list of positive worker counts, empty meaning no series.
func parseWorkerList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("enginebench: bad -engine-workers entry %q (want positive integers)", f)
		}
		out = append(out, w)
	}
	return out, nil
}

// countObserver is the cheapest possible live sink: the measured hooked
// cost is then the hook dispatch itself, not sink work.
type countObserver struct {
	hops, dels int
}

func (c *countObserver) OnHop(simnet.HopEvent)     { c.hops++ }
func (c *countObserver) OnDeliver(simnet.Delivery) { c.dels++ }

func main() {
	out := flag.String("o", "BENCH_engine.json", "output file (\"-\" for stdout)")
	quick := flag.Bool("quick", false, "single measured run instead of a calibrated benchmark loop")
	check := flag.Bool("check", false, "fail if allocs/event exceeds 10x, or ns/event exceeds 1+tolerance of, the values recorded in -against")
	tolerance := flag.Float64("tolerance", 0.15, "ns/event regression tolerance for -check (0.15 = fail beyond +15% of recorded)")
	against := flag.String("against", "BENCH_engine.json", "recorded report -check compares against")
	workerList := flag.String("engine-workers", "", "comma-separated engine worker counts to record as a scaling series (e.g. 1,2,4,8); point w runs at GOMAXPROCS w")
	flag.Parse()
	workerCounts, err := parseWorkerList(*workerList)
	if err != nil {
		fail(err)
	}

	x := hypercube(10)
	g := x.Graph()
	p := simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}

	runs := 1
	nodes := float64(g.N())
	// measure runs the workload at GOMAXPROCS workers.
	measure := func(obs simnet.Observer, workers int) metrics {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		cfg := core.Config{Eta: 2, Params: p, SkipCopies: true, Observe: obs}
		// -quick measures one run. Otherwise every point, series points
		// included, is a calibrated loop: on a 2-vCPU KVM guest the first
		// multi-worker runs after the one-worker headline loop read up to
		// 2x slower than those a second later, so a lone run measured
		// that warm-up rather than the engine.
		if *quick {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			res, err := x.Run(cfg)
			elapsed := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				fail(err)
			}
			if res.Contentions != 0 {
				fail(fmt.Errorf("contention in dedicated run"))
			}
			total := float64(res.Events)
			return metrics{
				EventsPerRun:     res.Events,
				EventsPerSec:     total / elapsed.Seconds(),
				NsPerEvent:       float64(elapsed.Nanoseconds()) / total,
				AllocsPerEvent:   float64(ms1.Mallocs-ms0.Mallocs) / total,
				BytesPerEvent:    float64(ms1.TotalAlloc-ms0.TotalAlloc) / total,
				PeakHeapBytes:    ms1.HeapAlloc,
				HeapBytesPerNode: float64(ms1.HeapAlloc) / nodes,
			}
		}
		var events int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := x.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Contentions != 0 {
					b.Fatal("contention in dedicated run")
				}
				events = res.Events
			}
		})
		if obs == nil {
			runs = r.N
		}
		// One more instrumented run for the memory figures: the calibrated
		// loop can't observe live heap, and a single extra run costs a
		// fraction of the loop it just finished.
		var msEnd runtime.MemStats
		runtime.GC()
		if _, err := x.Run(cfg); err != nil {
			fail(err)
		}
		runtime.ReadMemStats(&msEnd)
		total := float64(events) * float64(r.N)
		return metrics{
			EventsPerRun:     events,
			EventsPerSec:     total / r.T.Seconds(),
			NsPerEvent:       float64(r.T.Nanoseconds()) / total,
			AllocsPerEvent:   float64(r.MemAllocs) / total,
			BytesPerEvent:    float64(r.MemBytes) / total,
			PeakHeapBytes:    msEnd.HeapAlloc,
			HeapBytesPerNode: float64(msEnd.HeapAlloc) / nodes,
		}
	}
	cur := measure(nil, 1)
	counter := &countObserver{}
	hooked := measure(counter, 1)
	if counter.hops == 0 || counter.dels == 0 {
		fail(fmt.Errorf("hooked run observed %d hops, %d deliveries", counter.hops, counter.dels))
	}
	q6 := hypercube(6)
	repaired := measureRepaired(q6)
	if !*quick {
		// The recorded figure is the median of three measurements, so
		// -check's best of three is held to a typical run, not a lucky one.
		ms := []repairedMetrics{repaired, measureRepaired(q6), measureRepaired(q6)}
		slices.SortFunc(ms, func(a, b repairedMetrics) int { return cmp.Compare(a.NsPerEvent, b.NsPerEvent) })
		repaired = ms[1]
	}
	rep := report{
		Benchmark:        "EngineQ10ATA",
		Date:             time.Now().UTC().Format("2006-01-02"),
		GoVersion:        runtime.Version(),
		GoMaxProc:        runtime.GOMAXPROCS(0),
		Runs:             runs,
		Current:          cur,
		Baseline:         baseline,
		Speedup:          cur.EventsPerSec / baseline.EventsPerSec,
		Hooked:           &hooked,
		HookOverheadNs:   hooked.NsPerEvent - cur.NsPerEvent,
		Repaired:         &repaired,
		RepairedBaseline: &repairedBaseline,
	}
	for _, w := range workerCounts {
		m := measure(nil, w)
		if m.EventsPerRun != cur.EventsPerRun {
			fail(fmt.Errorf("engine-workers=%d processed %d events, one worker %d — parallel run diverged",
				w, m.EventsPerRun, cur.EventsPerRun))
		}
		rep.EngineWorkersSeries = append(rep.EngineWorkersSeries, workerPoint{
			Workers:      w,
			EventsPerSec: m.EventsPerSec,
			NsPerEvent:   m.NsPerEvent,
			Speedup:      m.EventsPerSec / cur.EventsPerSec,
			GoMaxProcs:   w,
			CoresLimited: runtime.NumCPU() < w,
		})
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("EngineQ10ATA: %.3g events/s, %.1f ns/event, %.2g allocs/event (%.2fx baseline) -> %s\n",
		cur.EventsPerSec, cur.NsPerEvent, cur.AllocsPerEvent, rep.Speedup, *out)
	fmt.Printf("observer hook: %.1f ns/event hooked (%+.1f ns/event vs nil hook), %.2g allocs/event\n",
		hooked.NsPerEvent, rep.HookOverheadNs, hooked.AllocsPerEvent)
	fmt.Printf("memory: %.1f MiB live heap after run, %.0f bytes/node\n",
		float64(cur.PeakHeapBytes)/(1<<20), cur.HeapBytesPerNode)
	fmt.Printf("repaired Q6: %.1f ns/event, %.2f ms, %.0f bytes and %.0f allocs per placement (delivery-log grader %.1f ns/event, %.0f bytes)\n",
		repaired.NsPerEvent, repaired.NsPerPlacement/1e6, repaired.BytesPerPlacement, repaired.AllocsPerPlacement,
		repairedBaseline.NsPerEvent, repairedBaseline.BytesPerPlacement)
	for _, pt := range rep.EngineWorkersSeries {
		note := ""
		if pt.CoresLimited {
			note = fmt.Sprintf(" [cores_limited: %d workers on GOMAXPROCS=%d]", pt.Workers, pt.GoMaxProcs)
		}
		fmt.Printf("engine-workers=%d: %.3g events/s, %.1f ns/event (%.2fx sequential)%s\n",
			pt.Workers, pt.EventsPerSec, pt.NsPerEvent, pt.Speedup, note)
	}

	if *check {
		if err := checkAllocs(cur, *against); err != nil {
			fail(err)
		}
		// The hook contract: observing adds dispatch time, never heap
		// traffic. Gate the hooked run against the same recorded
		// nil-hook envelope.
		if err := checkAllocs(hooked, *against); err != nil {
			fail(fmt.Errorf("with observer attached: %w", err))
		}
		// ns/event gate, best-of-3 against single-run noise: only if the
		// first measurement misses the tolerance do the (expensive)
		// retries run.
		best := cur
		for retry := 0; checkSpeed(best, *against, *tolerance) != nil && retry < 2; retry++ {
			if m := measure(nil, 1); m.NsPerEvent < best.NsPerEvent {
				best = m
			}
		}
		if err := checkSpeed(best, *against, *tolerance); err != nil {
			fail(err)
		}
		// The repair-on gate, best of three on ns/event likewise.
		for retry := 0; checkRepaired(repaired, *against, *tolerance) != nil && retry < 2; retry++ {
			if m := measureRepaired(q6); m.NsPerEvent < repaired.NsPerEvent {
				repaired = m
			}
		}
		if err := checkRepaired(repaired, *against, *tolerance); err != nil {
			fail(err)
		}
		// Scaling-series grade: the 1-worker point re-measures the
		// headline, and a multi-worker point that has its cores must not
		// lose to one worker. Core-starved points measure the host, not
		// the engine — skipped, loudly.
		for _, pt := range rep.EngineWorkersSeries {
			if pt.CoresLimited {
				fmt.Printf("enginebench: engine-workers=%d speedup %.2fx not graded (cores_limited)\n",
					pt.Workers, pt.Speedup)
				continue
			}
			floor := 1.0
			if pt.Workers == 1 {
				floor = 0.85 // the ≤10% overhead target, plus single-run noise margin
			}
			if pt.Speedup < floor {
				fail(fmt.Errorf("check: engine-workers=%d speedup %.2fx below %.2fx floor at GOMAXPROCS=%d",
					pt.Workers, pt.Speedup, floor, pt.GoMaxProcs))
			}
		}
		fmt.Printf("enginebench: allocs/event %.3g nil-hook, %.3g hooked — both within 10x of recorded — ok\n",
			cur.AllocsPerEvent, hooked.AllocsPerEvent)
		fmt.Printf("enginebench: %.1f ns/event within +%.0f%% of recorded — ok\n",
			best.NsPerEvent, *tolerance*100)
		fmt.Printf("enginebench: repaired Q6 %.1f ns/event within +%.0f%% and %.0f bytes/placement within 1.5x of recorded — ok\n",
			repaired.NsPerEvent, *tolerance*100, repaired.BytesPerPlacement)
	}
}

// recorded reads the report -check compares against.
func recorded(path string) (report, error) {
	var rec report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rec, fmt.Errorf("check: reading recorded report: %w", err)
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		return rec, fmt.Errorf("check: parsing %s: %w", path, err)
	}
	return rec, nil
}

// checkSpeed is the wall-clock regression gate: the measured ns/event
// must stay within 1+tolerance of the recorded report's value. Unlike
// the allocation gate this tracks real time, so callers damp single-run
// noise by re-measuring before failing.
func checkSpeed(cur metrics, path string, tolerance float64) error {
	rec, err := recorded(path)
	if err != nil {
		return err
	}
	if rec.Current.NsPerEvent <= 0 {
		return fmt.Errorf("check: %s records non-positive ns/event %g", path, rec.Current.NsPerEvent)
	}
	limit := (1 + tolerance) * rec.Current.NsPerEvent
	if cur.NsPerEvent > limit {
		return fmt.Errorf("check: ns/event regressed: measured %.1f > limit %.1f (recorded %.1f +%.0f%% in %s)",
			cur.NsPerEvent, limit, rec.Current.NsPerEvent, tolerance*100, path)
	}
	return nil
}

// checkAllocs is the regression gate: the measured allocs/event must
// stay within 10x of the recorded report's value. The flat-array engine
// allocates only per-run scratch, so a leak into the per-event hot path
// multiplies this figure by orders of magnitude and trips the gate long
// before it shows up in wall-clock noise.
func checkAllocs(cur metrics, path string) error {
	rec, err := recorded(path)
	if err != nil {
		return err
	}
	if rec.Current.AllocsPerEvent <= 0 {
		return fmt.Errorf("check: %s records non-positive allocs/event %g", path, rec.Current.AllocsPerEvent)
	}
	limit := 10 * rec.Current.AllocsPerEvent
	if cur.AllocsPerEvent > limit {
		return fmt.Errorf("check: allocs/event regressed: measured %g > limit %g (10x recorded %g in %s)",
			cur.AllocsPerEvent, limit, rec.Current.AllocsPerEvent, path)
	}
	return nil
}

// checkRepaired is the repair-on gate: bytes per placement must stay
// within 1.5x, and ns/event within 1+tolerance, of the recorded
// repair-on figures. Callers re-measure before failing on time.
func checkRepaired(cur repairedMetrics, path string, tolerance float64) error {
	rec, err := recorded(path)
	if err != nil {
		return err
	}
	r := rec.Repaired
	if r == nil || r.NsPerEvent <= 0 || r.BytesPerPlacement <= 0 {
		return fmt.Errorf("check: %s records no positive repaired_q6 ns/event and bytes/placement", path)
	}
	if limit := 1.5 * r.BytesPerPlacement; cur.BytesPerPlacement > limit {
		return fmt.Errorf("check: repaired bytes/placement regressed: measured %.0f > limit %.0f (1.5x recorded %.0f in %s)",
			cur.BytesPerPlacement, limit, r.BytesPerPlacement, path)
	}
	if limit := (1 + tolerance) * r.NsPerEvent; cur.NsPerEvent > limit {
		return fmt.Errorf("check: repaired ns/event regressed: measured %.1f > limit %.1f (recorded %.1f +%.0f%% in %s)",
			cur.NsPerEvent, limit, r.NsPerEvent, tolerance*100, path)
	}
	return nil
}

// hypercube builds the IHC schedule on Q_dim.
func hypercube(dim int) *core.IHC {
	cycles, err := hamilton.Hypercube(dim)
	if err != nil {
		fail(err)
	}
	x, err := core.New(topology.MustHypercube(dim), cycles)
	if err != nil {
		fail(err)
	}
	return x
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "enginebench:", err)
	os.Exit(1)
}
