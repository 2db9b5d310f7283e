package check

// This file defines the option and verdict vocabulary of the checker API
// v2 (DESIGN.md, decision 11): one functional-option set shared by the
// lin and slin checkers (one-shot and incremental Session forms) in place
// of the near-duplicate per-package Options structs of the v1 surface.

// Verdict is a three-valued checker outcome. The zero value is Unknown,
// which a checker reports only alongside an error (budget or memo-limit
// exhaustion, context cancellation) — never as a decided answer.
type Verdict int

const (
	// Unknown means the check did not run to completion (budget, memo
	// limit, cancellation); a larger budget may decide it.
	Unknown Verdict = iota
	// Linearizable means the property holds (Lin, Lin* or SLin(m,n),
	// depending on the check's mode).
	Linearizable
	// NotLinearizable means the property was refuted.
	NotLinearizable
)

// String returns the lowercase verdict name.
func (v Verdict) String() string {
	switch v {
	case Linearizable:
		return "linearizable"
	case NotLinearizable:
		return "not linearizable"
	default:
		return "unknown"
	}
}

// Settings is the resolved option set of one checker call or session.
// Callers normally build it through NewSettings and the With* options;
// the zero value of each field selects the documented default.
type Settings struct {
	// Budget bounds the total number of search nodes per one-shot check
	// (shared across all init-interpretation combinations for SLin) or
	// per Session lifetime (cumulative across Feed calls); 0 means the
	// checker's DefaultBudget.
	Budget int
	// Workers sizes the worker pool of the batch checkers (CheckAll,
	// Parallel), which shard independent traces; 0 means GOMAXPROCS.
	// Single-trace checks and sessions are sequential and ignore it.
	Workers int
	// Witness controls whether positive verdicts assemble linearization
	// witnesses. NewSettings defaults it to true; WithWitness(false)
	// skips witness assembly.
	Witness bool
	// MemoLimit bounds the checker's memoization structures, in entries;
	// 0 means unlimited. The frontier engines (lin.Check, slin.Check and
	// the Sessions) report ErrMemo when a frontier alone exceeds it,
	// since its configurations are live state that cannot be dropped
	// soundly; the depth-first lin.CheckClassical stops inserting new
	// memo entries beyond the limit (search stays exact, possibly
	// slower).
	MemoLimit int
	// TemporalAbortOrder selects the temporal variant of the SLin
	// checker's Abort-Order (slin package documentation); ignored by the
	// lin checkers.
	TemporalAbortOrder bool
	// POR enables the sleep-set partial-order reduction over the chain
	// extension branch sets of the SLin engine (DESIGN.md, decision
	// 12): commuting extension inputs are explored in only one order.
	// NewSettings defaults it to true; WithPOR(false) retains the
	// unreduced reference searches. The reduction is verdict- and
	// witness-preserving; it changes only Nodes (fewer) and Pruned
	// (skipped branches). The lin checkers ignore it: the classical
	// search has no extension branches, and the lin engine's
	// configuration identity already merges commuting orders
	// (decisions 20 and 21).
	POR bool
	// Exact forces the exact search engines on entry points that would
	// otherwise dispatch to an ADT-specialized fast-path checker
	// (DESIGN.md, decision 15): lin.CheckFast, the fast Sessions and the
	// speclin facade honour it; the plain lin/slin entry points are
	// always exact and ignore it. Off by default.
	Exact bool
	// FeedBudget switches a Session's node budget from per-session
	// lifetime to per-Feed: the spend counter is rebased at each Feed, so
	// one heavy-tailed action cannot starve every later feed into
	// spurious ErrBudget (the E16 `online_speedup_is_lower_bound`
	// caveat). A single Feed exceeding the budget still returns the
	// terminal ErrBudget. Off by default (lifetime budget); one-shot
	// checks ignore it.
	FeedBudget bool
}

// Option mutates one Settings field; checker entry points accept a
// variadic ...Option.
type Option func(*Settings)

// NewSettings resolves opts over the defaults (Witness and POR on,
// everything else zero).
func NewSettings(opts ...Option) Settings {
	s := Settings{Witness: true, POR: true}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// BudgetOr returns the configured budget, or def when unset.
func (s Settings) BudgetOr(def int) int {
	if s.Budget <= 0 {
		return def
	}
	return s.Budget
}

// WithBudget bounds the search to n nodes (see Settings.Budget).
func WithBudget(n int) Option { return func(s *Settings) { s.Budget = n } }

// WithWorkers sizes the pool the batch checkers shard independent
// traces across (see Settings.Workers; 0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *Settings) { s.Workers = n } }

// WithWitness toggles witness assembly on positive verdicts.
func WithWitness(on bool) Option { return func(s *Settings) { s.Witness = on } }

// WithMemoLimit bounds the memoization structures to n entries (see
// Settings.MemoLimit).
func WithMemoLimit(n int) Option { return func(s *Settings) { s.MemoLimit = n } }

// WithTemporalAbortOrder selects the temporal Abort-Order variant of the
// SLin checker.
func WithTemporalAbortOrder(on bool) Option {
	return func(s *Settings) { s.TemporalAbortOrder = on }
}

// WithPOR toggles the sleep-set partial-order reduction (see
// Settings.POR; default on). WithPOR(false) runs the unreduced reference
// search — the differential tests cross-check the two on every trace
// shape.
func WithPOR(on bool) Option { return func(s *Settings) { s.POR = on } }

// WithExact forces the exact search engines on entry points that would
// otherwise dispatch to an ADT-specialized fast-path checker (see
// Settings.Exact; DESIGN.md, decision 15).
func WithExact(on bool) Option { return func(s *Settings) { s.Exact = on } }

// WithFeedBudget switches a Session's budget to per-Feed instead of
// per-session lifetime (see Settings.FeedBudget; default off).
func WithFeedBudget(on bool) Option { return func(s *Settings) { s.FeedBudget = on } }
