// Package par is the one pool that fans independent jobs out across
// goroutines: the experiments and sweep points of the harness, the
// frontier series and repaired-frontier points of the fault campaign and
// the η sweeps of atasim.
// Its width is GOMAXPROCS, with no setting of its own, and results come
// back in index order, so a caller's output is the same at every width.
package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrCanceled is the error of a job that never started because the
// cancel channel closed first.
var ErrCanceled = errors.New("canceled before it started")

// Map runs fn(0), …, fn(n-1) and returns their results and errors in
// index order. Jobs are handed out in increasing index order to up to
// GOMAXPROCS goroutines, the caller's among them; serial runs them one
// at a time on the caller's goroutine, for a sink that takes one stream
// only. Every job runs, whatever another returns, unless cancel closes
// before it starts: it then reports ErrCanceled. A nil cancel never
// closes.
func Map[T any](n int, serial bool, cancel <-chan struct{}, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			select {
			case <-cancel:
				errs[i] = ErrCanceled
			default:
				out[i], errs[i] = fn(i)
			}
		}
	}
	width := min(runtime.GOMAXPROCS(0), n)
	if serial {
		width = 1
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out, errs
}
