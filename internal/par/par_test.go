package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withWidth runs f at GOMAXPROCS k and restores the old value.
func withWidth(k int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
	f()
}

// TestMapIndexOrder: results land at their job's index even when jobs
// finish out of order. Job 0 waits for job 1 to finish, so at any width
// above one the completion order starts 1, 0.
func TestMapIndexOrder(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		withWidth(k, func() {
			const n = 64
			oneDone := make(chan struct{})
			out, errs := Map(n, false, nil, func(i int) (int, error) {
				switch {
				case i == 0 && k > 1:
					<-oneDone
				case i == 1:
					defer close(oneDone)
				}
				return i * i, nil
			})
			for i := range out {
				if out[i] != i*i || errs[i] != nil {
					t.Fatalf("GOMAXPROCS %d: job %d = (%d, %v), want (%d, nil)", k, i, out[i], errs[i], i*i)
				}
			}
		})
	}
}

// TestMapRunsEveryJob: a failing job stops no other; each error stays
// at its own index.
func TestMapRunsEveryJob(t *testing.T) {
	for _, serial := range []bool{true, false} {
		withWidth(4, func() {
			var calls atomic.Int64
			_, errs := Map(50, serial, nil, func(i int) (struct{}, error) {
				calls.Add(1)
				if i%10 == 3 {
					return struct{}{}, fmt.Errorf("job %d failed", i)
				}
				return struct{}{}, nil
			})
			if calls.Load() != 50 {
				t.Fatalf("serial=%v: %d of 50 jobs ran", serial, calls.Load())
			}
			for i, err := range errs {
				if (i%10 == 3) != (err != nil) {
					t.Fatalf("serial=%v: job %d err = %v", serial, i, err)
				}
			}
		})
	}
}

// TestMapSerialRunsInIndexOrder: a serial map runs its jobs one at a
// time, in index order, at any GOMAXPROCS. The unsynchronized append
// is safe only if no two jobs overlap, which -race checks.
func TestMapSerialRunsInIndexOrder(t *testing.T) {
	withWidth(4, func() {
		var order []int
		Map(32, true, nil, func(i int) (int, error) {
			order = append(order, i)
			return 0, nil
		})
		for i, v := range order {
			if v != i {
				t.Fatalf("serial job order %v", order)
			}
		}
		if len(order) != 32 {
			t.Fatalf("%d of 32 serial jobs ran", len(order))
		}
	})
}

// TestMapCancel: once cancel closes, no job starts. Job 0 closes it and
// every other job waits for the close, so a serial map runs job 0 alone
// and a parallel one at most the jobs already handed out, one per
// goroutine. Every skipped job reports ErrCanceled, and a channel
// closed beforehand skips them all.
func TestMapCancel(t *testing.T) {
	const n, width = 40, 4
	for _, serial := range []bool{true, false} {
		withWidth(width, func() {
			cancel := make(chan struct{})
			var ran atomic.Int64
			out, errs := Map(n, serial, cancel, func(i int) (int, error) {
				ran.Add(1)
				if i == 0 {
					close(cancel)
				} else {
					<-cancel
				}
				return i + 1, nil
			})
			maxRan := int64(width)
			if serial {
				maxRan = 1
			}
			if ran.Load() < 1 || ran.Load() > maxRan {
				t.Fatalf("serial=%v: %d jobs ran after cancel, want 1..%d", serial, ran.Load(), maxRan)
			}
			skipped := 0
			for i := range errs {
				switch {
				case errors.Is(errs[i], ErrCanceled):
					skipped++
					if out[i] != 0 {
						t.Fatalf("serial=%v: skipped job %d has result %d", serial, i, out[i])
					}
				case errs[i] != nil || out[i] != i+1:
					t.Fatalf("serial=%v: job %d = (%d, %v)", serial, i, out[i], errs[i])
				case i >= width:
					t.Fatalf("serial=%v: job %d started after cancel closed", serial, i)
				}
			}
			if int64(skipped)+ran.Load() != n {
				t.Fatalf("serial=%v: %d skipped + %d ran != %d jobs", serial, skipped, ran.Load(), n)
			}

			_, errs = Map(n, serial, cancel, func(i int) (int, error) {
				t.Errorf("job %d ran on a closed cancel channel", i)
				return 0, nil
			})
			for i, err := range errs {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("serial=%v: job %d err = %v on a closed cancel channel", serial, i, err)
				}
			}
		})
	}
}
