package check

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelOrderAndCompleteness(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 64} {
		out, err := Parallel(context.Background(), items, workers, func(_ int, x int) (int, error) {
			return x * 2, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range out {
			if r != i*2 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, r, i*2)
			}
		}
	}
}

func TestParallelEmpty(t *testing.T) {
	out, err := Parallel(context.Background(), nil, 0, func(_ int, x int) (int, error) { return x, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestParallelStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	items := make([]int, 500)
	_, err := Parallel(context.Background(), items, 4, func(i int, _ int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(50 * time.Microsecond)
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
	// The pool stops scheduling after the failure; in-flight items may
	// finish, but the bulk of the batch must not run.
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatalf("all %d items ran despite early error", n)
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to at least one worker")
	}
	if Workers(7) != 7 {
		t.Fatal("explicit worker count must be respected")
	}
}

func TestParallelStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	items := make([]int, 500)
	_, err := Parallel(ctx, items, 4, func(i int, _ int) (int, error) {
		if ran.Add(1) == 1 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
}

func TestParallelCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := Parallel(ctx, []int{1, 2, 3}, 1, func(_ int, x int) (int, error) {
		ran++
		return x, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d items ran on a pre-cancelled context", ran)
	}
}
