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
