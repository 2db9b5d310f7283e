package lin

import (
	"context"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// CheckAll decides linearizability of each trace independently, sharding
// the batch across a worker pool of check.WithWorkers goroutines
// (GOMAXPROCS when unset). Results are in trace order; each check gets
// its own budget of check.WithBudget nodes. The first error (budget
// exhaustion, malformed action, cancellation of ctx) stops the batch and
// is returned with partial results.
//
// The workers option shards traces, not searches: every per-trace check
// is the sequential Check.
//
// Folder implementations must be safe for concurrent use; every ADT in
// package adt is stateless and qualifies.
func CheckAll(ctx context.Context, f adt.Folder, ts []trace.Trace, opts ...check.Option) ([]Result, error) {
	set := check.NewSettings(opts...)
	return check.Parallel(ctx, ts, set.Workers, func(_ int, t trace.Trace) (Result, error) {
		return checkStreaming(ctx, f, t, set)
	})
}

// CheckClassicalAll is CheckAll for the classical checker.
func CheckClassicalAll(ctx context.Context, f adt.Folder, ts []trace.Trace, opts ...check.Option) ([]Result, error) {
	set := check.NewSettings(opts...)
	return check.Parallel(ctx, ts, set.Workers, func(_ int, t trace.Trace) (Result, error) {
		return checkClassicalSettings(ctx, f, t, set)
	})
}
