package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestForCtxRunsAllWithoutCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prev := SetMaxWorkers(workers)
		var sum atomic.Int64
		if err := ForCtx(context.Background(), 100, func(i int) {
			sum.Add(int64(i))
		}); err != nil {
			t.Errorf("workers=%d: ForCtx = %v, want nil", workers, err)
		}
		if got := sum.Load(); got != 4950 {
			t.Errorf("workers=%d: ran sum %d, want 4950 (every iteration exactly once)", workers, got)
		}
		SetMaxWorkers(prev)
	}
}

func TestForCtxAlreadyCanceledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		prev := SetMaxWorkers(workers)
		var ran atomic.Int64
		err := ForCtx(ctx, 1000, func(i int) { ran.Add(1) })
		SetMaxWorkers(prev)
		if err != context.Canceled {
			t.Errorf("workers=%d: ForCtx = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d iterations ran on an already-canceled context, want 0", workers, got)
		}
	}
}

func TestForCtxStopsMidLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForCtx(ctx, 100000, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
	// Each worker may have had one iteration in flight when the context
	// died; everything else must have been skipped.
	if got := ran.Load(); got >= 100000 {
		t.Errorf("ForCtx ran all %d iterations despite mid-loop cancellation", got)
	}
	if got := helpers.Load(); got != 0 {
		t.Errorf("%d helpers still borrowed after a canceled loop returned", got)
	}
}

func TestForCtxNilAndBackgroundFastPath(t *testing.T) {
	var ran atomic.Int64
	if err := ForCtx(nil, 10, func(i int) { ran.Add(1) }); err != nil { //nolint:staticcheck // nil ctx is the documented fast path
		t.Fatalf("ForCtx(nil) = %v", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ForCtx(nil) ran %d iterations, want 10", ran.Load())
	}
}
