// Command ihcbench regenerates the paper's evaluation: every table and
// figure, model-vs-measured, rendered as text tables.
//
// Usage:
//
//	ihcbench                  # run everything at full size
//	ihcbench -quick           # small networks (seconds)
//	ihcbench -run table2      # one experiment by id
//	ihcbench -list            # list experiment ids
//	GOMAXPROCS=8 ihcbench     # pool and engine width
//	ihcbench -taus 100 -alpha 20 -mu 2 -d 37   # timing overrides
//	ihcbench -metrics         # aggregate observability metrics across all runs
//	ihcbench -run table2 -trace t2.jsonl        # per-hop stream of one experiment
//	ihcbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments — and the independent sweep points inside them — fan out
// on a pool GOMAXPROCS wide; results are merged in the registry's
// stable order, so stdout is byte-identical at every GOMAXPROCS.
// -metrics attaches a private observability sink to every sweep point;
// the per-point aggregates merge order-independently, so the reported
// snapshot is also identical at every GOMAXPROCS. -trace is
// single-stream: it runs the points one at a time and requires -run. A
// large run drains its arc-disjoint cycles on up to GOMAXPROCS
// goroutines too, so GOMAXPROCS=1 runs everything on one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ihc/internal/harness"
	"ihc/internal/observe"
	"ihc/internal/profiling"
	"ihc/internal/simnet"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "use small network sizes")
		run       = flag.String("run", "", "run a single experiment id (default: all)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		taus      = flag.Int64("taus", 100, "message startup time τ_S (ticks)")
		alpha     = flag.Int64("alpha", 20, "cut-through delay α (ticks)")
		mu        = flag.Int("mu", 2, "packet length μ (FIFO-buffer units)")
		d         = flag.Int64("d", 37, "queueing delay D (ticks)")
		metricsF  = flag.Bool("metrics", false, "aggregate per-link/node/stage metrics across every simulation and print a summary")
		tracePath = flag.String("trace", "", "write the per-hop observer stream to this file (\"-\" for stdout; requires -run, runs the points one at a time)")
		traceFmt  = flag.String("tracefmt", "jsonl", "trace format: jsonl or chrome")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	if *tracePath != "" && *run == "" {
		fmt.Fprintln(os.Stderr, "ihcbench: -trace streams one experiment's hops; pick it with -run")
		os.Exit(2)
	}
	trace, traceDone, err := observe.OpenTrace(*tracePath, *traceFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ihcbench:", err)
		os.Exit(2)
	}
	var shared *observe.Shared
	if *metricsF {
		shared = observe.NewShared()
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stats := &harness.RunStats{}
	cfg := harness.Config{
		Quick: *quick,
		Params: simnet.Params{
			TauS:  simnet.Time(*taus),
			Alpha: simnet.Time(*alpha),
			Mu:    *mu,
			D:     simnet.Time(*d),
		},
		Stats:   stats,
		Metrics: shared,
		Trace:   trace,
		Cancel:  ctx.Done(),
	}

	exps := harness.All()
	if *run != "" {
		e, err := harness.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	start := time.Now()
	reports := harness.RunExperiments(exps, cfg)
	elapsed := time.Since(start)
	stopProf()

	interrupted := ctx.Err() != nil
	failures := 0
	skipped := 0
	for _, r := range reports {
		if errors.Is(r.Err, harness.ErrCanceled) {
			skipped++
			continue
		}
		fmt.Printf("=== %s (%s): %s ===\n", r.ID, r.Paper, r.Title)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "FAILED %s: %v\n\n", r.ID, r.Err)
			failures++
			continue
		}
		for _, t := range r.Tables {
			t.Render(os.Stdout)
			fmt.Println()
		}
	}

	if err := traceDone(); err != nil {
		fmt.Fprintln(os.Stderr, "ihcbench:", err)
		os.Exit(1)
	}
	if shared != nil {
		fmt.Printf("=== metrics ===\n%s\n", shared.Snapshot().Summary())
	}

	w := runtime.GOMAXPROCS(0)
	if trace != nil {
		w = 1
	}
	fmt.Fprintf(os.Stderr, "%s; %v elapsed on %d worker(s)\n",
		stats.Summary(), elapsed.Round(time.Millisecond), w)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failures)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "ihcbench: interrupted; %d experiment(s) skipped, completed tables flushed\n", skipped)
		os.Exit(3)
	}
}
