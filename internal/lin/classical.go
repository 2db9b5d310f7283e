package lin

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// operation pairs an invocation index with its response index (or -1 when
// pending) in a well-formed trace.
type operation struct {
	inv, res int
	input    trace.Value
	output   trace.Value // meaningful when res >= 0
}

// collectOps extracts the operations of a well-formed trace in invocation
// order.
func collectOps(t trace.Trace) []operation {
	var ops []operation
	open := map[trace.ClientID]int{} // client -> index into ops
	for i, a := range t {
		switch a.Kind {
		case trace.Inv:
			open[a.Client] = len(ops)
			ops = append(ops, operation{inv: i, res: -1, input: a.Input})
		case trace.Res:
			j := open[a.Client]
			ops[j].res = i
			ops[j].output = a.Output
		}
	}
	return ops
}

// Linearization is the sequential-reordering witness of the classical
// definition: operation indices (into the trace's invocation order) in
// the order the operations appear in the witnessing sequential trace
// (Definition 45's t_seq).
type Linearization []int

// CheckClassical decides linearizability* of t with respect to f
// (Appendix A, Definitions 37–46): t is well-formed and some completion of
// t can be reordered into a sequential trace that agrees with the ADT and
// preserves the order of non-overlapping operations.
//
// Completions append a response for every pending invocation (Definition
// 39 requires completions to be complete traces); since the output function
// is total, the appended outputs are unconstrained by the original trace
// and are chosen by the search.
//
// On success, Result.Sequential holds the witnessing operation order;
// the package's tests validate it against the definitions and convert it
// into a new-definition witness by Lemma 2's construction.
//
// The search accepts traces of any length (DESIGN.md, decision 13): its
// memo of failed search states is keyed by two 128-bit digests, the
// placed-operation set's (a check.BitSet, maintained incrementally) and
// the folded ADT state's (trace.HashString), so a memo entry costs the
// same whatever the history's length or the state's size. The property
// tests diff it against the capped bitmask engine it replaced, retained
// as a test-only reference.
//
// The classical search is not structured per trace action, so there is
// no classical Session — use Check, which agrees with CheckClassical on
// unique-input traces by Theorem 1. Being one depth-first search, it
// spends the budget over its whole run rather than per fed action as
// the frontier engines do (DESIGN.md, decision 34). On budget exhaustion
// Result.Nodes still reports the nodes spent.
func CheckClassical(ctx context.Context, f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	return checkClassicalSettings(ctx, f, t, check.NewSettings(opts...))
}

func checkClassicalSettings(ctx context.Context, f adt.Folder, t trace.Trace, set check.Settings) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if !t.WellFormed() {
		return Result{OK: false, Reason: "trace is not well-formed"}, nil
	}
	ops := collectOps(t)
	s := &classicalSearcher{
		ctx:    ctx,
		f:      f,
		ops:    ops,
		budget: set.Budget,
		failed: map[classicalKey]struct{}{},
		order:  make([]int, len(ops)),
		placed: check.NewBitSet(len(ops)),
	}
	s.initPrecedence()
	ok, err := s.run(f.Empty())
	if err != nil {
		return Result{Nodes: s.nodes}, err
	}
	if !ok {
		return Result{OK: false, Reason: "no legal sequential reordering exists", Nodes: s.nodes}, nil
	}
	return Result{OK: true, Sequential: append(Linearization{}, s.order...), Nodes: s.nodes}, nil
}

// classicalKey is the fixed-size memoization key of the classical search:
// the 128-bit digests of the placed-operation set and of the folded ADT
// state, the decision-7 discipline every engine keys on. The memo holds
// no state string, so what it retains is 32 bytes a failed search state
// however long a queue's contents grow.
type classicalKey struct {
	placed, state trace.Digest
}

type classicalSearcher struct {
	ctx    context.Context
	f      adt.Folder
	ops    []operation
	budget int
	nodes  int
	failed map[classicalKey]struct{}
	// order[k] is the k-th linearized operation on the successful path.
	order []int

	// Real-time precedence (Definition 44) in O(n) space: operations are
	// in invocation order, so the operations k must precede are exactly
	// the suffix ops[first[k]:] (first[k] = first operation invoked after
	// k's response; n for pending operations, which precede nothing).
	// Operation j is then eligible iff j < min{first[k] : k unplaced,
	// completed} — k's own first[k] is always > k, so j never blocks
	// itself. curMin maintains that minimum incrementally over cnt (the
	// multiset of first values of unplaced completed operations), and the
	// candidate loop runs only up to it, replacing the former per-node
	// O(n²) eligibility rescan with a scan of the open real-time window
	// (load-bearing at decision-13 trace lengths).
	first  []int32
	cnt    []int32 // indexed by first value, 0..n
	curMin int

	// The placed set, with its incremental digest; every operation below
	// lo is placed, so the candidate loop starts there.
	placed check.BitSet
	lo     int

	// audit shadows every memo key with the exact placed set and state it
	// stands for under -tags memocheck; a zero-size no-op otherwise
	// (memocheck_off.go).
	audit classicalAudit
}

// initPrecedence computes first[k] — the start of the suffix k must
// precede, found by binary search on the (increasing) invocation indices
// — and seeds the cnt multiset and its running minimum with every
// completed operation unplaced.
func (s *classicalSearcher) initPrecedence() {
	n := len(s.ops)
	s.first = make([]int32, n)
	s.cnt = make([]int32, n+1)
	s.curMin = n
	for k, op := range s.ops {
		s.first[k] = int32(n)
		if op.res >= 0 {
			lo, hi := k+1, n // ops[k].inv < ops[k].res, so the suffix starts past k
			for lo < hi {
				mid := (lo + hi) / 2
				if s.ops[mid].inv > op.res {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			s.first[k] = int32(lo)
			s.cnt[lo]++
			if lo < s.curMin {
				s.curMin = lo
			}
		}
	}
}

// place marks operation j linearized, updating the placed set (and its
// digest), its low-water mark and the eligibility window: removing a
// completed operation from the cnt multiset may advance curMin forward
// past emptied slots. unplace undoes it on backtrack — re-adding
// first[j] restores the exact minimum in O(1), so curMin is always the
// true minimum of the multiset, and lo drops back to j if it was above.
func (s *classicalSearcher) place(j int) {
	s.placed.Add(j)
	for s.lo < len(s.ops) && s.placed.Has(s.lo) {
		s.lo++
	}
	if s.ops[j].res >= 0 {
		f := int(s.first[j])
		s.cnt[f]--
		if f == s.curMin {
			for s.curMin < len(s.ops) && s.cnt[s.curMin] == 0 {
				s.curMin++
			}
		}
	}
}

func (s *classicalSearcher) unplace(j int) {
	s.placed.Remove(j)
	s.lo = min(s.lo, j)
	if s.ops[j].res >= 0 {
		f := int(s.first[j])
		s.cnt[f]++
		if f < s.curMin {
			s.curMin = f
		}
	}
}

// run linearizes operations one at a time against the searcher's placed
// set; st is the folded ADT state the placed operations produced. An
// operation j may be linearized next iff every operation whose response
// precedes j's invocation in real time is already placed (Definition 44;
// equivalently j < curMin — the candidate loop never looks past the open
// real-time window), and — when j completed in the original trace — its
// output matches the ADT's output at the current state.
func (s *classicalSearcher) run(st adt.State) (bool, error) {
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudget
	}
	if s.nodes&ctxPollMask == 0 && s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return false, err
		}
	}
	if s.placed.Len() == len(s.ops) {
		return true, nil
	}
	key := classicalKey{placed: s.placed.Digest(), state: trace.HashString(string(st))}
	if _, hit := s.failed[key]; hit {
		s.auditHit(key, st)
		return false, nil
	}
	// Place/unplace pairs inside the loop restore cnt and curMin exactly,
	// so the snapshot stays the eligibility bound for every iteration.
	lim := s.curMin
	for j := s.lo; j < lim; j++ {
		if s.placed.Has(j) {
			continue
		}
		op := &s.ops[j]
		// ADT agreement for completed operations; pending operations take
		// whatever output the completion assigns, so nothing to check.
		if op.res >= 0 && s.f.Out(st, op.input) != op.output {
			continue
		}
		s.place(j)
		ok, err := s.run(s.f.Step(st, op.input))
		s.unplace(j)
		if err != nil {
			return false, err
		}
		if ok {
			s.order[s.placed.Len()] = j
			return true, nil
		}
	}
	s.failed[key] = struct{}{}
	s.auditInsert(key, st)
	return false, nil
}

// VerifyWitness checks a linearization function against Definitions 6–12
// directly: it explains every response, Validity holds at every commit
// index, and commit histories are totally ordered by strict prefix. It is
// used by tests to validate Check's positive verdicts independently of the
// search that produced them.
func VerifyWitness(f adt.Folder, t trace.Trace, w Witness) error {
	var commits []int
	invoked := trace.Multiset{} // elems(inputs(t, i)) as i advances
	for i, a := range t {
		if a.Kind == trace.Inv {
			invoked.Add(a.Input, 1)
		}
		if a.Kind != trace.Res {
			continue
		}
		commits = append(commits, i)
		g, ok := w[i]
		if !ok {
			return fmtErr("no commit history for response index %d", i)
		}
		// Explains (Definition 7).
		out, err := f.Apply(g)
		if err != nil {
			return err
		}
		if out != a.Output {
			return fmtErr("index %d: history %v explains %q, trace has %q", i, g, out, a.Output)
		}
		// Validity (Definitions 10–11).
		if len(g) == 0 || g.Last() != a.Input {
			return fmtErr("index %d: history %v does not end with input %q", i, g, a.Input)
		}
		if !g.Elems().SubsetOf(invoked) {
			return fmtErr("index %d: history %v uses inputs not invoked before it", i, g)
		}
	}
	// Commit-Order (Definition 12). Strict-prefix order is transitive, so
	// the histories are totally ordered by it exactly when, sorted by
	// length, each is a strict prefix of the next.
	sort.Slice(commits, func(x, y int) bool { return len(w[commits[x]]) < len(w[commits[y]]) })
	for x := 1; x < len(commits); x++ {
		gi, gj := w[commits[x-1]], w[commits[x]]
		if !gi.IsStrictPrefixOf(gj) {
			return fmtErr("commit histories %v and %v are not strict-prefix ordered", gi, gj)
		}
	}
	return nil
}

func fmtErr(format string, args ...any) error {
	return &witnessError{msg: fmt.Sprintf(format, args...)}
}

type witnessError struct{ msg string }

func (e *witnessError) Error() string { return "lin: invalid witness: " + e.msg }
