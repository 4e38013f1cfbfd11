package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"ihc/internal/tablefmt"
)

// renderAll runs the full suite at the given pool width and renders every
// table into one byte stream, exactly as cmd/ihcbench prints it.
func renderAll(t *testing.T, workers int, stats *RunStats) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range RunAll(Config{Quick: true, Workers: workers, Stats: stats}) {
		if r.Err != nil {
			t.Fatalf("workers=%d: %s failed: %v", workers, r.ID, r.Err)
		}
		fmt.Fprintf(&buf, "=== %s ===\n", r.ID)
		for _, tab := range r.Tables {
			tab.Render(&buf)
		}
		if r.Wall < 0 {
			t.Fatalf("workers=%d: %s negative wall time", workers, r.ID)
		}
	}
	return buf.Bytes()
}

// The tentpole invariant: the parallel sweep executor merges results in
// stable order, so the rendered suite output is byte-identical for every
// worker-pool width.
func TestParallelOutputDeterministic(t *testing.T) {
	seq := renderAll(t, 1, nil)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := renderAll(t, workers, nil)
		if !bytes.Equal(seq, got) {
			t.Fatalf("workers=%d output differs from sequential run\nseq %d bytes, got %d bytes",
				workers, len(seq), len(got))
		}
	}
}

func TestRunStatsPopulated(t *testing.T) {
	stats := &RunStats{}
	renderAll(t, 0, stats)
	if stats.Runs() == 0 {
		t.Fatal("no sweep points recorded")
	}
	if stats.Failures() != 0 {
		t.Fatalf("%d failures recorded in a clean run", stats.Failures())
	}
	if stats.Events() == 0 {
		t.Fatal("no simulator events recorded")
	}
	if stats.Wall() <= 0 {
		t.Fatal("no wall-clock recorded")
	}
	s := stats.Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestSweepMergesInOrderAndReportsFirstError(t *testing.T) {
	cfg := Config{Workers: 4}
	out, err := sweep(cfg, 64, func(i int, _ *Env) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// The lowest-indexed failure is surfaced, matching a sequential loop.
	_, err = sweep(cfg, 64, func(i int, _ *Env) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("point %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 3 failed" {
		t.Fatalf("err = %v, want point 3 failed", err)
	}
}

func TestRunExperimentsReportsPerExperimentErrors(t *testing.T) {
	exps := []Experiment{
		{ID: "a", Run: func(Config) ([]*tablefmt.Table, error) { return []*tablefmt.Table{tablefmt.New("t", "c")}, nil }},
		{ID: "b", Run: func(Config) ([]*tablefmt.Table, error) { return nil, fmt.Errorf("boom") }},
		{ID: "c", Run: func(Config) ([]*tablefmt.Table, error) { return []*tablefmt.Table{tablefmt.New("t", "c")}, nil }},
	}
	reports := RunExperiments(exps, Config{Workers: 3})
	if len(reports) != 3 {
		t.Fatalf("%d reports", len(reports))
	}
	for i, want := range []string{"a", "b", "c"} {
		if reports[i].ID != want {
			t.Fatalf("reports out of order: %d = %s", i, reports[i].ID)
		}
	}
	if reports[0].Err != nil || reports[2].Err != nil {
		t.Fatal("clean experiments reported errors")
	}
	if reports[1].Err == nil || reports[1].Err.Error() != "boom" {
		t.Fatalf("failing experiment: err = %v", reports[1].Err)
	}
}

// TestSweepEngineWorkers pins the engine width each point is handed: an
// explicit Config.EngineWorkers wins; otherwise one engine worker while
// the pool runs several simulations at once, while experiments run side
// by side, or when Workers is below GOMAXPROCS, and automatic (0) for a
// lone simulation with the whole machine.
func TestSweepEngineWorkers(t *testing.T) {
	seen := func(cfg Config, n int) []int {
		t.Helper()
		out, err := sweep(cfg, n, func(_ int, env *Env) (int, error) { return env.EngineWorkers, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	lone := 0
	if runtime.GOMAXPROCS(0) > 1 {
		lone = 1 // Workers: 1 is below GOMAXPROCS
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		want int
	}{
		{"explicit", Config{Workers: 8, EngineWorkers: 3}, 4, 3},
		{"explicit one", Config{EngineWorkers: 1}, 1, 1},
		{"whole machine", Config{}, 1, 0},
		{"one-wide budget", Config{Workers: 1}, 4, lone},
	} {
		for i, got := range seen(tc.cfg, tc.n) {
			if got != tc.want {
				t.Errorf("%s: point %d got EngineWorkers %d, want %d", tc.name, i, got, tc.want)
			}
		}
	}
	if runtime.GOMAXPROCS(0) > 1 {
		for i, got := range seen(Config{Workers: 2}, 4) {
			if got != 1 {
				t.Errorf("two-wide pool: point %d got EngineWorkers %d, want 1", i, got)
			}
		}
		exp := Experiment{ID: "x", Run: func(cfg Config) ([]*tablefmt.Table, error) {
			got, err := sweep(cfg, 1, func(_ int, env *Env) (int, error) { return env.EngineWorkers, nil })
			if err == nil && got[0] != 1 {
				err = fmt.Errorf("experiment beside another: got EngineWorkers %d, want 1", got[0])
			}
			return nil, err
		}}
		for _, r := range RunExperiments([]Experiment{exp, exp}, Config{Workers: 2}) {
			if r.Err != nil {
				t.Error(r.Err)
			}
		}
	}
}
