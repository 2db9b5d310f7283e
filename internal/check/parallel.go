package check

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes Parallel's worker count: n when positive,
// otherwise GOMAXPROCS. Zero therefore means "one worker per core".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Parallel applies fn to every item on a pool of workers and returns the
// results in item order. Items are independent; they are handed out by an
// atomic cursor, so the pool load-balances uneven item costs. The first
// error — or a cancellation of ctx — stops the pool: in-flight items
// finish, remaining items are never started, and the error (respectively
// ctx.Err()) is returned alongside the partial results. Result slots
// whose items never ran hold the zero value.
//
// It is the one batch path (DESIGN.md, decision 9): every checker
// decides one trace sequentially, and a caller with many — the E8
// equivalence sweeps, cmd/slin-check, keyed.Set.Check — shards them here.
func Parallel[T, R any](ctx context.Context, items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background() // nil tolerated like every other v2 entry point
	}
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r, err := fn(i, it)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(items) || failed.Load() || ctx.Err() != nil {
					return
				}
				r, err := fn(i, items[i])
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return out, first
}
