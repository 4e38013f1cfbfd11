package harness

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
)

// atWidth runs f at GOMAXPROCS k, the pool's only width, and restores
// the old value.
func atWidth(k int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	f()
}

// renderAll runs the full suite at GOMAXPROCS k and renders every table
// into one byte stream, exactly as cmd/ihcbench prints it.
func renderAll(t *testing.T, k int, stats *RunStats) []byte {
	t.Helper()
	var buf bytes.Buffer
	atWidth(k, func() {
		for _, r := range RunAll(Config{Quick: true, Stats: stats}) {
			if r.Err != nil {
				t.Fatalf("GOMAXPROCS %d: %s failed: %v", k, r.ID, r.Err)
			}
			fmt.Fprintf(&buf, "=== %s ===\n", r.ID)
			for _, tab := range r.Tables {
				tab.Render(&buf)
			}
			if r.Wall < 0 {
				t.Fatalf("GOMAXPROCS %d: %s negative wall time", k, r.ID)
			}
		}
	})
	return buf.Bytes()
}

// The tentpole invariant: the parallel sweep executor merges results in
// stable order, so the rendered suite output is byte-identical at every
// pool width.
func TestParallelOutputDeterministic(t *testing.T) {
	seq := renderAll(t, 1, nil)
	for _, k := range []int{4, runtime.GOMAXPROCS(0)} {
		got := renderAll(t, k, nil)
		if !bytes.Equal(seq, got) {
			t.Fatalf("GOMAXPROCS %d output differs from sequential run\nseq %d bytes, got %d bytes",
				k, len(seq), len(got))
		}
	}
}

func TestRunStatsPopulated(t *testing.T) {
	stats := &RunStats{}
	renderAll(t, runtime.GOMAXPROCS(0), stats)
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

// Every point runs at every width, so RunStats counts the same, and the
// lowest-indexed failure is surfaced, matching a sequential loop.
func TestSweepMergesInOrderAndReportsFirstError(t *testing.T) {
	for _, k := range []int{1, 4} {
		atWidth(k, func() {
			out, err := sweep(Config{}, 64, func(i int, _ simnet.Observer) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("GOMAXPROCS %d: out[%d] = %d", k, i, v)
				}
			}
			stats := &RunStats{}
			_, err = sweep(Config{Stats: stats}, 64, func(i int, _ simnet.Observer) (int, error) {
				if i%10 == 3 {
					return 0, fmt.Errorf("point %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "point 3 failed" {
				t.Fatalf("GOMAXPROCS %d: err = %v, want point 3 failed", k, err)
			}
			if stats.Runs() != 64 || stats.Failures() != 7 {
				t.Fatalf("GOMAXPROCS %d: %d runs, %d failures recorded, want 64 and 7", k, stats.Runs(), stats.Failures())
			}
		})
	}
}

func TestRunExperimentsReportsPerExperimentErrors(t *testing.T) {
	exps := []Experiment{
		{ID: "a", Run: func(Config) ([]*tablefmt.Table, error) { return []*tablefmt.Table{tablefmt.New("t", "c")}, nil }},
		{ID: "b", Run: func(Config) ([]*tablefmt.Table, error) { return nil, fmt.Errorf("boom") }},
		{ID: "c", Run: func(Config) ([]*tablefmt.Table, error) { return []*tablefmt.Table{tablefmt.New("t", "c")}, nil }},
	}
	var reports []Report
	atWidth(3, func() { reports = RunExperiments(exps, Config{}) })
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

// A Cancel channel closed before the batch starts skips every
// experiment: each report carries ErrCanceled and no tables, and no
// experiment runs.
func TestRunExperimentsCanceled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	for _, k := range []int{1, 4} {
		atWidth(k, func() {
			reports := RunExperiments(All(), Config{Quick: true, Cancel: cancel})
			if len(reports) != len(All()) {
				t.Fatalf("GOMAXPROCS %d: %d reports for %d experiments", k, len(reports), len(All()))
			}
			for i, r := range reports {
				if r.ID != All()[i].ID {
					t.Fatalf("GOMAXPROCS %d: report %d is %s, want %s", k, i, r.ID, All()[i].ID)
				}
				if !errors.Is(r.Err, ErrCanceled) || r.Tables != nil {
					t.Fatalf("GOMAXPROCS %d: %s: err = %v, %d tables after cancel", k, r.ID, r.Err, len(r.Tables))
				}
			}
		})
	}
}
