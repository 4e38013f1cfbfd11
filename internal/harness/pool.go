package harness

// The parallel sweep executor. Every experiment in this package is a
// sweep over independent (topology, η, params) points, and every point
// runs on a fresh simnet.Network (the engine documents that link state
// persists across Run calls on one Network, so sharing one across
// goroutines would be both a data race and a correctness bug). That
// independence makes the whole suite embarrassingly parallel: sweep()
// fans points out across a bounded worker pool and merges the results
// back in input order, and RunAll() does the same across whole
// experiments in the registry's stable ID order — so the rendered output
// is byte-identical to a sequential run regardless of worker count.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ihc/internal/observe"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
)

// ErrCanceled is returned by sweep points that were skipped because
// the Config's Cancel channel closed before they ran.
var ErrCanceled = errors.New("harness: run canceled")

// RunStats accumulates observable execution counters across a batch of
// experiment runs and sweep points. All updates are atomic, so one
// RunStats may be shared by every goroutine of a parallel sweep; the
// summed per-run wall-clock compared against elapsed time is what makes
// a parallel speedup directly observable.
type RunStats struct {
	runs     atomic.Int64
	failures atomic.Int64
	events   atomic.Int64
	wall     atomic.Int64 // summed per-run wall-clock, nanoseconds
}

// record logs one completed run or sweep point.
func (s *RunStats) record(wall time.Duration, err error) {
	s.runs.Add(1)
	s.wall.Add(int64(wall))
	if err != nil {
		s.failures.Add(1)
	}
}

// AddEvents credits simulator events processed by a run.
func (s *RunStats) AddEvents(n int64) { s.events.Add(n) }

// Runs returns the number of completed runs/sweep points.
func (s *RunStats) Runs() int64 { return s.runs.Load() }

// Failures returns the number of runs that ended in error.
func (s *RunStats) Failures() int64 { return s.failures.Load() }

// Events returns the total simulator events processed.
func (s *RunStats) Events() int64 { return s.events.Load() }

// Wall returns the per-run wall-clock summed over all runs; with W
// workers saturated this exceeds elapsed time by up to a factor of W.
func (s *RunStats) Wall() time.Duration { return time.Duration(s.wall.Load()) }

// Summary renders the counters in one line.
func (s *RunStats) Summary() string {
	msg := fmt.Sprintf("%d runs in %v summed run time, %.3g simulator events",
		s.Runs(), s.Wall().Round(time.Millisecond), float64(s.Events()))
	if f := s.Failures(); f > 0 {
		msg += fmt.Sprintf(", %d failed", f)
	}
	return msg
}

// workers resolves the effective worker-pool width: Workers, or
// GOMAXPROCS when unset. A raw trace sink is inherently single-stream,
// so tracing forces sequential execution regardless of the configured
// width — the exported stream is then the engine's deterministic event
// order, every time. The pool does not narrow the engine: a large run
// may still drain on up to GOMAXPROCS workers (simnet's automatic
// rule), and the Go scheduler shares the cores.
func (c Config) workers() int {
	if c.Trace != nil {
		return 1
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Env is the execution environment a sweep worker hands to every point
// it runs: reusable simulator working memory plus the observability
// sink the point should attach to its simulation runs (nil when no
// sink is configured — the engine's fast path).
type Env struct {
	Scratch *simnet.Scratch
	Obs     simnet.Observer

	metrics *observe.Metrics // this worker's private aggregator, absorbed at drain
}

// newEnv builds one worker's environment from the run Config.
func newEnv(cfg Config) *Env {
	env := &Env{Scratch: simnet.NewScratch()}
	var obs []simnet.Observer
	if cfg.Trace != nil {
		obs = append(obs, cfg.Trace)
	}
	if cfg.Metrics != nil {
		env.metrics = observe.NewMetrics()
		obs = append(obs, env.metrics)
	}
	env.Obs = observe.Tee(obs...)
	return env
}

// close merges the worker's private metrics into the shared aggregate.
// Merging is commutative and associative over whole runs, so the final
// snapshot is identical for every worker count and drain order.
func (e *Env) close(cfg Config) {
	if e.metrics != nil {
		cfg.Metrics.Absorb(e.metrics)
	}
}

// addEvents credits simulator events to the run's stats collector, when
// one is attached.
func (c Config) addEvents(n int64) {
	if c.Stats != nil {
		c.Stats.AddEvents(n)
	}
}

// sweep runs fn(0..n-1) — the independent points of one experiment sweep
// — on a bounded pool of cfg.workers() goroutines and returns the
// results in index order, so callers produce output identical to a
// sequential loop. Each worker goroutine owns one Env (simulator
// scratch plus, when configured, a private metrics sink absorbed into
// cfg.Metrics when the worker drains), handed to every point it runs;
// points that do not simulate simply ignore it. Each point is timed
// into cfg.Stats. On failure the error of the lowest-indexed failing
// point is returned, matching what a sequential loop would have
// surfaced first.
func sweep[T any](cfg Config, n int, fn func(i int, env *Env) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := cfg.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		env := newEnv(cfg)
		defer env.close(cfg)
		for i := 0; i < n; i++ {
			out[i], errs[i] = runPoint(cfg, i, env, fn)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := newEnv(cfg) // per-worker: never shared across goroutines
			defer env.close(cfg)
			for i := range idx {
				out[i], errs[i] = runPoint(cfg, i, env, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runPoint[T any](cfg Config, i int, env *Env, fn func(int, *Env) (T, error)) (T, error) {
	select {
	case <-cfg.Cancel:
		var zero T
		return zero, ErrCanceled
	default:
	}
	start := time.Now()
	v, err := fn(i, env)
	if cfg.Stats != nil {
		cfg.Stats.record(time.Since(start), err)
	}
	return v, err
}

// row is one rendered table row: the cells passed to tablefmt.Addf.
type row []interface{}

// sweepRows is sweep specialized to experiments whose points each
// produce exactly one table row.
func sweepRows(cfg Config, points []func(env *Env) (row, error)) ([]row, error) {
	return sweep(cfg, len(points), func(i int, env *Env) (row, error) { return points[i](env) })
}

// Report is one experiment's outcome in a batch run.
type Report struct {
	Experiment
	Tables []*tablefmt.Table
	Err    error
	Wall   time.Duration
}

// RunAll executes every registered experiment on the Config's worker
// pool and returns the reports in the registry's stable ID order — the
// same order, and therefore byte-identical rendered output, as running
// the experiments one at a time.
func RunAll(cfg Config) []Report { return RunExperiments(All(), cfg) }

// RunExperiments executes the given experiments on the Config's worker
// pool, returning reports in input order. Experiments themselves fan
// their internal sweep points across the same pool width; failures are
// reported per experiment rather than aborting the batch.
func RunExperiments(exps []Experiment, cfg Config) []Report {
	reports := make([]Report, len(exps))
	workers := cfg.workers()
	if workers > len(exps) {
		workers = len(exps)
	}
	runOne := func(i int) {
		e := exps[i]
		select {
		case <-cfg.Cancel:
			reports[i] = Report{Experiment: e, Err: ErrCanceled}
			return
		default:
		}
		start := time.Now()
		tables, err := e.Run(cfg)
		reports[i] = Report{Experiment: e, Tables: tables, Err: err, Wall: time.Since(start)}
	}
	if workers <= 1 {
		for i := range exps {
			runOne(i)
		}
		return reports
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return reports
}
