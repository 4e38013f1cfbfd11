// Package harness regenerates every table and figure of the paper's
// evaluation: it runs the IHC algorithm and the baseline ATA reliable
// broadcast algorithms on the simulator, evaluates the closed-form
// model, and renders paper-vs-measured comparisons. Each experiment is
// registered with the id of the paper artifact it reproduces (Table I-IV,
// Fig. 1-9, Theorem 4, plus the headline numbers, crossover analysis, and
// reliability study).
package harness

import (
	"fmt"
	"sort"

	"ihc/internal/observe"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
)

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks network sizes so the full suite runs in seconds
	// (used by tests); the default exercises the largest practical
	// sizes.
	Quick bool
	// Params are the timing parameters; the zero value selects the
	// defaults (τ_S=100, α=20, μ=2, D=37 ticks). A partially set Params
	// keeps every field given and defaults only α and μ, whose zero
	// values are invalid — see simnet.Params.Defaulted.
	Params simnet.Params
	// Stats, when non-nil, accumulates per-run wall-clock and simulator
	// event counters (atomically) across all concurrent runs.
	Stats *RunStats
	// Metrics, when non-nil, aggregates the observability metrics of
	// every simulation the experiments run: each sweep point feeds a
	// private observe.Metrics sink (no locking on the hot path) that is
	// absorbed into this shared aggregate when the point returns.
	// Aggregation is merge-order independent, so the final snapshot is
	// identical at every GOMAXPROCS.
	Metrics *observe.Shared
	// Trace, when non-nil, receives the raw per-hop observer stream of
	// every simulation (e.g. an observe.JSONL or observe.ChromeTrace
	// exporter). A trace sink is single-stream: experiments and sweep
	// points then run one at a time in index order, so the stream is
	// the engine's deterministic sequential order.
	Trace simnet.Observer
	// Cancel, when non-nil, stops the batch between sweep points once
	// it is closed: in-flight points finish, ones not yet started
	// return ErrCanceled. Wire a signal-bound context's Done() channel
	// here for interruptible command-line runs.
	Cancel <-chan struct{}
}

// params returns the effective timing parameters.
func (c Config) params() simnet.Params { return c.Params.Defaulted() }

// Experiment reproduces one paper artifact.
type Experiment struct {
	ID    string // e.g. "table2", "fig6", "theorem4"
	Paper string // the artifact reproduced, e.g. "Table II"
	Title string
	Run   func(Config) ([]*tablefmt.Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in a stable order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, IDs())
}

// IDs lists the registered experiment ids.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// match formats an exact model-vs-measured comparison cell.
func match(measured, modeled simnet.Time) string {
	if measured == modeled {
		return "exact"
	}
	return fmt.Sprintf("%+d (%.2f%%)", measured-modeled, 100*float64(measured-modeled)/float64(modeled))
}

// ns renders a tick count as nanoseconds-based human units, used by the
// headline experiment where 1 tick = 1 ns.
func ns(t simnet.Time) string {
	switch {
	case t >= 1_000_000:
		return fmt.Sprintf("%.3f ms", float64(t)/1e6)
	case t >= 1_000:
		return fmt.Sprintf("%.3f µs", float64(t)/1e3)
	default:
		return fmt.Sprintf("%d ns", t)
	}
}
