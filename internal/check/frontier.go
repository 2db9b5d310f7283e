package check

import "repro/internal/trace"

// ExpandFrontier is the shared expansion step of the frontier engines
// (lin.Session, slin.Session): it replaces a frontier by its successor
// set, deduplicated by configuration digest. spend charges search nodes
// (called once per source configuration); expandOne emits every
// successor of one configuration. merge combines a duplicate emission
// into the kept configuration of the same digest (slin's DAG-level
// sleep-set intersection of decision 17) and may recycle the
// duplicate. Keeping the deduplication here guarantees the two engines
// cannot drift.
func ExpandFrontier[C any](frontier []C, spend func(int) error,
	dig func(C) trace.Digest, merge func(kept, dup C) C,
	expandOne func(c C, emit func(C)) error) ([]C, error) {

	var next []C
	seen := make(map[trace.Digest]int, len(frontier))
	for _, c := range frontier {
		if err := spend(1); err != nil {
			return nil, err
		}
		err := expandOne(c, func(n C) {
			d := dig(n)
			if at, dup := seen[d]; dup {
				next[at] = merge(next[at], n)
				return
			}
			seen[d] = len(next)
			next = append(next, n)
		})
		if err != nil {
			return nil, err
		}
	}
	return next, nil
}
