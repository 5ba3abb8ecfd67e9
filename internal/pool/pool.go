// Package pool provides the bounded, deterministic worker pool shared
// by usher-bench and usher-difftest, the daemon's default worker count
// and the module build's batch compiles.
package pool

import (
	"runtime"
	"sync"
)

// DefaultParallelism is the worker count used by the non-parallel entry
// points: one worker per CPU.
func DefaultParallelism() int { return runtime.NumCPU() }

// ForEach runs f(0..n-1) on at most parallel workers and returns the
// first (lowest-index) error. With parallel <= 1 it degenerates to a
// plain sequential loop, reproducing the pre-parallel driver exactly.
// Results must be written by f into pre-sized slices indexed by i, which
// keeps output ordering deterministic regardless of scheduling.
func ForEach(parallel, n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	if parallel > n {
		parallel = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	// done is closed by the first worker that records an error, stopping
	// the dispatcher from handing out the remaining indices (the serial
	// loop likewise stops at the first failure). In-flight work finishes.
	done := make(chan struct{})
	var closeOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if errs[i] = f(i); errs[i] != nil {
					closeOnce.Do(func() { close(done) })
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	// Lowest index wins. This matches the serial loop: indices are handed
	// out in order, so any index the serial loop would have failed on was
	// dispatched no later than the error that stopped the dispatcher.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
