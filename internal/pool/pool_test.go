package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachStopsDispatchOnError pins the early-cancel contract of the
// parallel path: once a worker records an error, no new indices are
// handed out (the serial path likewise stops at the first failure). The
// pre-fix driver dispatched all n indices regardless.
func TestForEachStopsDispatchOnError(t *testing.T) {
	const n = 1000
	var calls atomic.Int64
	boom := errors.New("boom")
	err := ForEach(4, n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("forEach error = %v, want %v", err, boom)
	}
	if got := calls.Load(); got > n/2 {
		t.Errorf("forEach invoked f %d times after an immediate failure; want far fewer than %d", got, n)
	}
}

// TestForEachReturnsLowestIndexError checks that when several workers
// fail, the error returned is the one the serial loop would have hit.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		err := ForEach(parallel, 64, func(i int) error {
			if i >= 2 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 2" {
			t.Errorf("parallel=%d: forEach error = %v, want fail 2", parallel, err)
		}
	}
}

// TestForEachCompletesWithoutError checks the happy path visits every
// index exactly once.
func TestForEachCompletesWithoutError(t *testing.T) {
	for _, parallel := range []int{1, 3, 16} {
		const n = 100
		seen := make([]atomic.Int32, n)
		if err := ForEach(parallel, n, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("parallel=%d: forEach error = %v", parallel, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("parallel=%d: index %d visited %d times", parallel, i, got)
			}
		}
	}
}
