package harness

// The parallel sweep executor. Every experiment in this package is a
// sweep over independent (topology, η, params) points, and every point
// runs on a fresh simnet.Network (the engine documents that link state
// persists across Run calls on one Network, so sharing one across
// goroutines would be both a data race and a correctness bug). That
// independence makes the whole suite embarrassingly parallel: sweep()
// fans points out on the par pool and merges the results back in input
// order, and RunAll() does the same across whole experiments in the
// registry's stable ID order — so the rendered output is byte-identical
// to a sequential run at every GOMAXPROCS.

import (
	"fmt"
	"sync/atomic"
	"time"

	"ihc/internal/observe"
	"ihc/internal/par"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
)

// ErrCanceled is the error of an experiment or sweep point skipped
// because the Config's Cancel channel closed before it started.
var ErrCanceled = par.ErrCanceled

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

// addEvents credits simulator events to the run's stats collector, when
// one is attached.
func (c Config) addEvents(n int64) {
	if c.Stats != nil {
		c.Stats.AddEvents(n)
	}
}

// sweep runs fn(0..n-1), the independent points of one experiment
// sweep, on the par pool and returns the results in index order, so
// callers produce output identical to a sequential loop. A trace sink
// takes one stream, so under cfg.Trace the points run one at a time in
// index order. Each point gets its own observer: the trace sink plus,
// under cfg.Metrics, a private metrics sink absorbed into the shared
// aggregate when the point returns (nil with neither, the engine's fast
// path); points that do not simulate ignore it. Each point is timed
// into cfg.Stats. Every point runs, and the error of the lowest-indexed
// failing point is returned.
func sweep[T any](cfg Config, n int, fn func(i int, obs simnet.Observer) (T, error)) ([]T, error) {
	out, errs := par.Map(n, cfg.Trace != nil, cfg.Cancel, func(i int) (T, error) {
		obs := []simnet.Observer{cfg.Trace}
		if cfg.Metrics != nil {
			met := observe.NewMetrics()
			defer cfg.Metrics.Absorb(met)
			obs = append(obs, met)
		}
		start := time.Now()
		v, err := fn(i, observe.Tee(obs...))
		if cfg.Stats != nil {
			cfg.Stats.record(time.Since(start), err)
		}
		return v, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// row is one rendered table row: the cells passed to tablefmt.Addf.
type row []interface{}

// sweepRows is sweep specialized to experiments whose points each
// produce exactly one table row.
func sweepRows(cfg Config, points []func(obs simnet.Observer) (row, error)) ([]row, error) {
	return sweep(cfg, len(points), func(i int, obs simnet.Observer) (row, error) { return points[i](obs) })
}

// Report is one experiment's outcome in a batch run.
type Report struct {
	Experiment
	Tables []*tablefmt.Table
	Err    error
	Wall   time.Duration
}

// RunAll executes every registered experiment on the par pool and
// returns the reports in the registry's stable ID order — the same
// order, and therefore byte-identical rendered output, as running the
// experiments one at a time.
func RunAll(cfg Config) []Report { return RunExperiments(All(), cfg) }

// RunExperiments executes the given experiments on the par pool,
// returning reports in input order; under cfg.Trace they run one at a
// time. Experiments themselves fan their sweep points out on the same
// pool; failures are reported per experiment rather than aborting the
// batch, and an experiment skipped after cfg.Cancel closed reports
// ErrCanceled.
func RunExperiments(exps []Experiment, cfg Config) []Report {
	reports, errs := par.Map(len(exps), cfg.Trace != nil, cfg.Cancel, func(i int) (Report, error) {
		start := time.Now()
		tables, err := exps[i].Run(cfg)
		return Report{Experiment: exps[i], Tables: tables, Err: err, Wall: time.Since(start)}, nil
	})
	for i, err := range errs {
		if err != nil {
			reports[i] = Report{Experiment: exps[i], Err: err}
		}
	}
	return reports
}
