package slin

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// ErrBudget is returned when a check exceeds its search budget.
var ErrBudget = errors.New("slin: search budget exhausted")

// ErrMemo is returned by Sessions (the breadth engine) when a frontier
// exceeds the configured check.WithMemoLimit; the depth-first engine of
// Check instead stops inserting memo entries beyond the limit.
var ErrMemo = errors.New("slin: memo limit exceeded")

// DefaultBudget bounds the number of search nodes explored per check.
const DefaultBudget = 2_000_000

// ctxPollMask throttles context polling in the search hot loops: the
// context is consulted once every ctxPollMask+1 spent nodes.
const ctxPollMask = 0x3ff

// Checks are configured with the shared functional options of package
// check (checker API v2, DESIGN.md decision 11): WithBudget bounds the
// search (one budget per Check call, shared across all
// init-interpretation combinations, spent one node per recursive step —
// uniform with lin.Check and lin.CheckClassical), WithMemoLimit bounds
// the memo tables, and WithTemporalAbortOrder selects the temporal
// Abort-Order reading documented below.
//
// TemporalAbortOrder weakens Abort-Order (Definition 32) to constrain
// only commit histories of responses occurring before the abort action
// in the trace.
//
// The literal Definition 32 quantifies over all commit histories, and
// combined with abort Validity (Definition 28, evaluated at the abort's
// own index) it forbids a phase from committing new operations after
// any abort has been issued — matching the §6 specification automaton,
// whose hist "does not grow anymore" once aborting begins. The paper's
// Quorum example violates this on schedules where a client decides
// after another client's switch using an input invoked in between; the
// paper's informal §2.4 proof does not check abort Validity and misses
// this. Experiment E6b documents the divergence: Quorum traces always
// satisfy the temporal variant, but adversarial schedules fail the
// literal one. The intra-object composition theorem is proved for the
// literal semantics (and checked there by E7); for consensus-like ADTs
// whose interpretation classes depend only on the winning value, the
// temporal variant still yields linearizable compositions, which E2/E3
// verify end-to-end.

// Witness is one instance of Definition 19's existential content for a
// fixed init interpretation: a speculative linearization function g on
// commit indices plus an abort interpretation f_abort. VerifyWitness
// checks a witness against Definitions 20–32 directly.
type Witness struct {
	// Init is the (universally quantified) interpretation of init
	// actions this witness answers, keyed by action index.
	Init map[int]trace.History
	// Commits maps response indices to their commit histories g(i).
	Commits map[int]trace.History
	// Aborts maps abort action indices to their abort histories.
	Aborts map[int]trace.History
}

// Result reports the outcome of a speculative linearizability check.
type Result struct {
	// OK is true when the trace satisfies SLin_T(m,n) with respect to the
	// representative interpretations.
	OK bool
	// Reason documents a negative verdict.
	Reason string
	// FailedInit, when not OK and the failure is interpretation-specific,
	// holds the init interpretation (by init action index) that admits no
	// speculative linearization function.
	FailedInit map[int]trace.History
	// Witnesses holds one witness per checked init-interpretation
	// combination when OK.
	Witnesses []Witness
	// Nodes is the number of search nodes the check spent across all
	// interpretation combinations (always at most the budget; comparable
	// with lin.Result.Nodes).
	Nodes int
	// Pruned is the number of extension branches the sleep-set
	// partial-order reduction skipped (check.WithPOR, on by default;
	// always 0 on WithPOR(false) runs). The SLin reducer conservatively
	// disables itself on traces containing abort actions — abort
	// histories extend the chain as a sequence, and r_init may be
	// order-sensitive — so the depth-first engine reports 0 there. The
	// breadth engine (Sessions) cannot see aborts coming: it may prune on
	// an abort-free prefix, then discard the pruned frontiers by an
	// unreduced replay at the first abort while keeping the cumulative
	// counter, so its Pruned can stay non-zero on abort-carrying traces
	// (the verdict is still unreduced-exact).
	Pruned int
}

// spender is the per-call search budget, shared by every interpretation
// combination and sub-search of one Check call; it also accumulates the
// pruned-branch count of the partial-order reduction across combinations.
type spender struct {
	ctx    context.Context
	nodes  int
	budget int
	pruned int
}

func (sp *spender) spend() error {
	sp.nodes++
	if sp.nodes > sp.budget {
		return ErrBudget
	}
	if sp.nodes&ctxPollMask == 0 && sp.ctx != nil {
		if err := sp.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// existsFn is the signature shared by the optimized and reference
// implementations of Definition 19's existential part.
type existsFn func(f adt.Folder, rinit RInit, m, n int, t trace.Trace, finit map[int]trace.History, set check.Settings, sp *spender) (bool, Witness, error)

// Check decides whether t satisfies SLin_T(m,n) (Definition 36) for the
// ADT f and the phase-agreed relation rinit. Switch actions with phase
// parameter m are init actions, those with parameter n abort actions;
// switch actions with interior parameters (m < o < n) may occur in
// composed traces and are ignored, mirroring Definition 33's projection.
//
// The check is context-aware: cancellation of ctx aborts the search with
// ctx's error.
func Check(ctx context.Context, f adt.Folder, rinit RInit, m, n int, t trace.Trace, opts ...check.Option) (Result, error) {
	return checkSettings(ctx, f, rinit, m, n, t, check.NewSettings(opts...))
}

func checkSettings(ctx context.Context, f adt.Folder, rinit RInit, m, n int, t trace.Trace, set check.Settings) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	return checkWith(ctx, f, rinit, m, n, t, set, existsWitness)
}

// checkWith is the common driver for Check and CheckReference: it
// enumerates init-interpretation combinations and delegates the
// existential search, with one budget shared across the whole call.
func checkWith(ctx context.Context, f adt.Folder, rinit RInit, m, n int, t trace.Trace, set check.Settings, exists existsFn) (Result, error) {
	if m >= n || m < 1 {
		return Result{}, fmt.Errorf("slin: invalid phase range (%d,%d)", m, n)
	}
	for _, a := range t {
		if !trace.InSig(a, m, n) {
			return Result{}, fmt.Errorf("slin: action %v outside sig(%d,%d)", a, m, n)
		}
	}
	if !t.PhaseWellFormed(m, n) {
		return Result{OK: false, Reason: fmt.Sprintf("trace is not (%d,%d)-well-formed", m, n)}, nil
	}

	// Enumerate init interpretation combinations (the ∀ of Definition 19).
	var initIdx []int
	for i, a := range t {
		if a.IsInit(m) && m != 1 {
			initIdx = append(initIdx, i)
		}
	}
	choices := make([][]trace.History, len(initIdx))
	for k, i := range initIdx {
		reps := rinit.Representatives(t[i].SwitchValue)
		if len(reps) == 0 {
			return Result{}, fmt.Errorf("slin: switch value %q has no interpretations", t[i].SwitchValue)
		}
		choices[k] = reps
	}

	combo := make([]int, len(initIdx))
	var witnesses []Witness
	sp := &spender{ctx: ctx, budget: set.BudgetOr(DefaultBudget)}
	for {
		finit := map[int]trace.History{}
		for k, i := range initIdx {
			finit[i] = choices[k][combo[k]]
		}
		ok, w, err := exists(f, rinit, m, n, t, finit, set, sp)
		if err != nil {
			return Result{Nodes: sp.nodes, Pruned: sp.pruned}, err
		}
		if !ok {
			return Result{
				OK:         false,
				Reason:     "no speculative linearization function for some init interpretation",
				FailedInit: finit,
				Nodes:      sp.nodes,
				Pruned:     sp.pruned,
			}, nil
		}
		if set.Witness {
			witnesses = append(witnesses, w)
		}
		// Advance the mixed-radix counter over representative choices.
		k := 0
		for ; k < len(combo); k++ {
			combo[k]++
			if combo[k] < len(choices[k]) {
				break
			}
			combo[k] = 0
		}
		if k == len(combo) {
			break
		}
	}
	return Result{OK: true, Witnesses: witnesses, Nodes: sp.nodes, Pruned: sp.pruned}, nil
}

// CheckLin decides plain linearizability of a switch-free trace via the
// SLin machinery with m = 1: by Theorem 2, SLin_T(1, n) restricted to
// sig_T coincides with Lin_T. Tests use it to validate Theorem 2 against
// package lin.
func CheckLin(ctx context.Context, f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	return Check(ctx, f, UniversalRInit{}, 1, 2, t, opts...)
}
