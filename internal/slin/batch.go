package slin

import (
	"context"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// CheckAll decides SLin_T(m,n) for each trace independently, sharding the
// batch across a worker pool of check.WithWorkers goroutines (GOMAXPROCS
// when unset). Results are in trace order; each check gets its own budget
// of check.WithBudget nodes shared across its interpretation
// combinations. The first error (or a cancellation of ctx) stops the
// batch and is returned with partial results. The workers option shards
// traces, not searches: every per-trace check is the sequential Check.
//
// Folder and RInit implementations must be safe for concurrent use; every
// implementation in packages adt and slin is stateless and qualifies.
func CheckAll(ctx context.Context, f adt.Folder, rinit RInit, m, n int, ts []trace.Trace, opts ...check.Option) ([]Result, error) {
	set := check.NewSettings(opts...)
	return check.Parallel(ctx, ts, set.Workers, func(_ int, t trace.Trace) (Result, error) {
		return checkSettings(ctx, f, rinit, m, n, t, set)
	})
}
