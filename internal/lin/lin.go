// Package lin decides linearizability of traces.
//
// It implements both definitions studied in the paper:
//
//   - Check implements the paper's new definition (§4, Definitions 5–15):
//     a trace is linearizable iff it is well-formed and admits a
//     linearization function mapping response indices to commit histories
//     that explain the outputs, use only previously invoked inputs
//     (Validity), and are totally ordered by strict prefix (Commit-Order).
//
//   - CheckClassical implements the classical Herlihy–Wing definition as
//     formalized in Appendix A (Definitions 37–46): a trace is
//     linearizable* iff some completion can be reordered into a sequential
//     trace that agrees with the ADT and preserves the order of
//     non-overlapping operations. It accepts traces of any length: its
//     memo keys on the digests of the placed-operation set and of the
//     folded state (DESIGN.md, decision 13).
//
// Theorem 1/4 states the two definitions coincide; experiment E8 validates
// that this package's two checkers agree on randomly generated traces.
//
// Both checkers are exact decision procedures (worst-case exponential, as
// the problem is NP-hard). A step budget bounds pathological searches;
// exceeding it yields ErrBudget rather than a wrong verdict.
//
// Engines. Check and Session are one engine (session.go): the frontier of
// reachable configurations, advanced one action at a time and
// deduplicated by 128-bit digests (DESIGN.md, decisions 20 and 21). For
// the register, consensus, queue, mutex and stack folders both run an
// ADT-specialized core instead (fastpath.go) while the trace stays in
// its fragment, unless check.WithExact; the one option is the only
// fast/exact switch (decision 36).
// CheckClassical is a depth-first search over placed operation sets,
// memoized on 128-bit digests like every other engine (decision 13).
// CheckReference retains the original string-keyed search as an
// executable specification, and the tests retain the capped-bitmask
// classical search; property tests assert the engines agree with them.
package lin

import (
	"context"
	"errors"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// ErrBudget is returned when a check exceeds its search budget; the
// trace's status is then unknown rather than decided.
var ErrBudget = errors.New("lin: search budget exhausted")

// Witness is a linearization function restricted to commit indices: for
// each response index of the trace it gives the commit history g(i)
// (Definition 8).
type Witness map[int]trace.History

// Result reports the outcome of a linearizability check.
type Result struct {
	// OK is true when the trace is linearizable.
	OK bool
	// Reason documents a negative verdict.
	Reason string
	// Witness holds a linearization function when OK (new definition
	// checker only).
	Witness Witness
	// Sequential holds the sequential-reordering witness when OK
	// (classical checker only).
	Sequential Linearization
	// Nodes is the number of search nodes the check spent (at most the
	// budget per fed action — over the whole search for CheckClassical;
	// comparable across Check, CheckClassical and slin.Check).
	Nodes int
}

// Check decides linearizability of t with respect to f under the paper's
// new definition. The check is context-aware: cancellation of ctx aborts
// the search with ctx's error. The returned error is non-nil only for
// budget exhaustion, cancellation or malformed inputs, never for a
// (correct) negative verdict.
//
// Check is Session run one-shot (checkStreaming). For a folder with a
// fast-path core it runs the core as NewSession does, unless
// check.WithExact: Result.Nodes then counts fed actions, no budget is
// spent, and the queue core reports positive verdicts past
// fastQueueWitnessCap without a witness; a fragment exit hands the
// trace to the exact engine, whose verdict, reason and nodes are then
// the result. The exact engine is the frontier engine with the response
// lookahead a complete trace allows (DESIGN.md, decision 21), so the
// budget bounds each fed action's spend, and a budget error carries the
// session's explanation — "lin: search budget exhausted (feed 17: 8
// configurations, 5 open operations, 21 nodes)" — wrapping ErrBudget:
// match it with errors.Is.
func Check(ctx context.Context, f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	return checkStreaming(ctx, f, t, check.NewSettings(opts...))
}

// ctxPollMask throttles context polling in the search hot loops: the
// context is consulted once every ctxPollMask+1 spent nodes.
const ctxPollMask = 0x3ff
