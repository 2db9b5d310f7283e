package lin

import (
	"context"
	"errors"
	"math/bits"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// This file retains the pre-decision-13 classical engine — the uint64
// placed-bitmask search with the per-node O(n²) real-time eligibility
// rescan — as a test-only executable reference. The property and fuzz
// tests diff CheckClassical against it on the ≤63-op range (verdicts,
// witness validity and node counts, which match exactly: the sparse
// engine enumerates the same candidates in the same order).

// errClassicalRefCap is the reference engine's representation cap: the
// production checker does not cap, and reference callers stay within 63
// operations.
var errClassicalRefCap = errors.New("lin: classicalRef capped at 63 operations (bitmask representation)")

// classicalRef decides linearizability* exactly as CheckClassical does,
// on the retained bitmask representation. Traces beyond 63 operations
// return errClassicalRefCap.
func classicalRef(ctx context.Context, f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	set := check.NewSettings(opts...)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if !t.WellFormed() {
		return Result{OK: false, Reason: "trace is not well-formed"}, nil
	}
	ops := collectOps(t)
	if len(ops) > 63 {
		return Result{}, errClassicalRefCap
	}
	s := &classicalRefSearcher{
		ctx:      ctx,
		f:        f,
		ops:      ops,
		budget:   set.Budget,
		failed:   map[classicalRefKey]struct{}{},
		stateIDs: map[adt.State]uint32{},
		order:    make([]int, len(ops)),
	}
	ok, err := s.run(0, f.Empty())
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{OK: false, Reason: "no legal sequential reordering exists", Nodes: s.nodes}, nil
	}
	return Result{OK: true, Sequential: append(Linearization{}, s.order...), Nodes: s.nodes}, nil
}

// classicalRefKey is the reference memo key: the exact placed bitmask and
// the interned folded ADT state.
type classicalRefKey struct {
	placed  uint64
	stateID uint32
}

type classicalRefSearcher struct {
	ctx      context.Context
	f        adt.Folder
	ops      []operation
	budget   int
	nodes    int
	failed   map[classicalRefKey]struct{}
	stateIDs map[adt.State]uint32
	// order[k] is the k-th linearized operation on the successful path.
	order []int
}

// stateID interns a folded ADT state to a dense id.
func (s *classicalRefSearcher) stateID(st adt.State) uint32 {
	if id, ok := s.stateIDs[st]; ok {
		return id
	}
	id := uint32(len(s.stateIDs))
	s.stateIDs[st] = id
	return id
}

// run linearizes operations one at a time. placed is the bitmask of
// already-linearized operations and st the folded ADT state they produced.
// An operation j may be linearized next iff every operation k whose
// response precedes j's invocation in real time is already placed
// (Definition 44), and — when j completed in the original trace — its
// output matches the ADT's output at the current state.
func (s *classicalRefSearcher) run(placed uint64, st adt.State) (bool, error) {
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudget
	}
	if s.nodes&ctxPollMask == 0 && s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return false, err
		}
	}
	if placed == uint64(1)<<len(s.ops)-1 {
		return true, nil
	}
	key := classicalRefKey{placed: placed, stateID: s.stateID(st)}
	if _, hit := s.failed[key]; hit {
		return false, nil
	}
	for j, op := range s.ops {
		if placed&(1<<j) != 0 {
			continue
		}
		// Real-time order: all operations completed before op's
		// invocation must already be placed.
		eligible := true
		for k, other := range s.ops {
			if placed&(1<<k) != 0 || k == j {
				continue
			}
			if other.res >= 0 && other.res < op.inv {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		// ADT agreement for completed operations; pending operations take
		// whatever output the completion assigns, so nothing to check.
		if op.res >= 0 && s.f.Out(st, op.input) != op.output {
			continue
		}
		ok, err := s.run(placed|1<<j, s.f.Step(st, op.input))
		if err != nil {
			return false, err
		}
		if ok {
			s.order[bits.OnesCount64(placed)] = j
			return true, nil
		}
	}
	s.failed[key] = struct{}{}
	return false, nil
}
