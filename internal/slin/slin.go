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

// Checks are configured with the shared functional options of package
// check (checker API v2, DESIGN.md decision 11): WithBudget bounds the
// search nodes each fed action may spend, shared across all
// init-interpretation combinations — uniform with lin.Check (decision
// 34) — and WithTemporalAbortOrder selects the temporal Abort-Order
// reading documented below.
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
	// interpretation combinations (at most the budget per fed action;
	// comparable with lin.Result.Nodes).
	Nodes int
}

// Check decides whether t satisfies SLin_T(m,n) (Definition 36) for the
// ADT f and the phase-agreed relation rinit. Switch actions with phase
// parameter m are init actions, those with parameter n abort actions;
// switch actions with interior parameters (m < o < n) may occur in
// composed traces and are ignored, mirroring Definition 33's projection.
//
// Check is the frontier engine of Session fed the whole trace
// (DESIGN.md, decision 25), told up front what only the whole trace can
// tell: every init interpretation, so no init action triggers a replay,
// whether an abort is coming, so the configuration identity is set once,
// and the responses still to come, so every combination runs lin's
// response lookahead (decision 31). The budget therefore bounds each fed
// action's spend, and a budget error carries the session's explanation
// — "slin: search budget exhausted (feed 17: 2 combinations, 8
// configurations, 5 open operations, 21 nodes)" — wrapping ErrBudget:
// match it with errors.Is. Cancellation of ctx aborts with ctx's error.
// Check never runs a fast-path core, whatever check.WithExact says.
func Check(ctx context.Context, f adt.Folder, rinit RInit, m, n int, t trace.Trace, opts ...check.Option) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	s, err := newSessionSettings(ctx, f, rinit, m, n, check.NewSettings(opts...))
	if err != nil {
		return Result{}, err
	}
	for _, a := range t {
		if !trace.InSig(a, m, n) {
			return Result{}, fmt.Errorf("slin: action %v outside sig(%d,%d)", a, m, n)
		}
	}
	return s.checkWhole(t)
}

// CheckLin decides plain linearizability of a switch-free trace via the
// SLin machinery with m = 1: by Theorem 2, SLin_T(1, n) restricted to
// sig_T coincides with Lin_T. It runs lin's frontier engine (DESIGN.md,
// decision 31), so tests hold it to lin.Check node for node.
func CheckLin(ctx context.Context, f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	return Check(ctx, f, UniversalRInit{}, 1, 2, t, opts...)
}
