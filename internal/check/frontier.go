package check

import (
	"context"
	"errors"

	"repro/internal/trace"
)

// ErrFrontierLimit is returned by ExpandFrontier when a successor
// frontier exceeds Settings.MemoLimit; the breadth engines map it to
// their package-level ErrMemo sentinels.
var ErrFrontierLimit = errors.New("check: frontier exceeded memo limit")

// ExpandFrontier is the shared expansion step of the breadth (frontier)
// engines (lin.Session, slin.Session): it replaces a frontier by its
// successor set, deduplicated by configuration digest — over a sharded
// claim set across Settings.Workers workers when parallel, a plain map
// otherwise. spend charges search nodes (called once per source
// configuration); expandOne emits every successor of one configuration.
// merge, when non-nil, combines a duplicate emission into the kept
// configuration of the same digest (slin's DAG-level sleep-set
// intersection of decision 17) and may recycle the duplicate; it runs
// on the sequential path only — the parallel path's sharded claim set
// keeps first-insert-wins semantics, and its callers emit
// merge-neutral configurations (empty carried sleep sets). Keeping the
// concurrency, deduplication and memo-limit semantics here guarantees
// the two engines cannot drift.
func ExpandFrontier[C any](ctx context.Context, frontier []C, set Settings,
	spend func(int) error, dig func(C) trace.Digest,
	merge func(kept, dup C) C,
	expandOne func(c C, emit func(C)) error) ([]C, error) {

	var next []C
	if set.Workers > 1 && len(frontier) > 1 {
		seen := NewShardedSet(func(d trace.Digest) uint64 { return d[0] })
		parts, err := Parallel(ctx, frontier, set.Workers, func(_ int, c C) ([]C, error) {
			if err := spend(1); err != nil {
				return nil, err
			}
			var local []C
			err := expandOne(c, func(n C) {
				if seen.TryInsert(dig(n)) {
					local = append(local, n)
				}
			})
			return local, err
		})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			next = append(next, p...)
		}
	} else {
		seen := make(map[trace.Digest]int, len(frontier))
		for _, c := range frontier {
			if err := spend(1); err != nil {
				return nil, err
			}
			err := expandOne(c, func(n C) {
				d := dig(n)
				if at, dup := seen[d]; dup {
					if merge != nil {
						next[at] = merge(next[at], n)
					}
					return
				}
				seen[d] = len(next)
				next = append(next, n)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if set.MemoLimit > 0 && len(next) > set.MemoLimit {
		return nil, ErrFrontierLimit
	}
	return next, nil
}
