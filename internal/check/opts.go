package check

// This file defines the option and verdict vocabulary of the checker API
// v2 (DESIGN.md, decision 11): one functional-option set shared by the
// lin and slin checkers (one-shot and incremental Session forms) in place
// of the near-duplicate per-package Options structs of the v1 surface.

// Verdict is a three-valued checker outcome. The zero value is Unknown,
// which a checker reports only alongside an error (budget exhaustion,
// context cancellation) — never as a decided answer.
type Verdict int

const (
	// Unknown means the check did not run to completion (budget,
	// cancellation); a larger budget may decide it.
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

// DefaultBudget is the number of search nodes a fed action may spend
// (a depth-first search: its whole run) when no WithBudget option is
// given.
const DefaultBudget = 2_000_000

// Settings is the resolved option set of one checker call or session.
// Callers normally build it through NewSettings and the With* options;
// the zero value of each field selects the documented default.
type Settings struct {
	// Budget bounds the search nodes one fed action may spend (DESIGN.md,
	// decision 34): the frontier engines charge each Feed of a session —
	// and each action of a one-shot check, a session fed the whole trace
	// — against it afresh, SLin's init-interpretation combinations and
	// replays sharing the action's allowance. Only the depth-first
	// searches — lin.CheckClassical and the reference oracles — spend one
	// budget over their whole run. NewSettings resolves 0 to
	// DefaultBudget.
	Budget int
	// Witness controls whether positive verdicts assemble linearization
	// witnesses. NewSettings defaults it to true; WithWitness(false)
	// skips witness assembly.
	Witness bool
	// TemporalAbortOrder selects the temporal variant of the SLin
	// checker's Abort-Order (slin package documentation); ignored by the
	// lin checkers.
	TemporalAbortOrder bool
	// Exact forces the exact search engines wherever an ADT-specialized
	// fast-path core applies (DESIGN.md, decisions 15 and 36): lin.Check,
	// lin.NewSession and slin.NewSession at m = 1, on a folder with a
	// core, and so the speclin facade. It is the only fast/exact switch,
	// and is ignored where no core applies: slin.Check, m > 1, folders
	// without a core. Off by default.
	Exact bool
}

// Option mutates one Settings field; checker entry points accept a
// variadic ...Option.
type Option func(*Settings)

// NewSettings resolves opts over the defaults (DefaultBudget, Witness
// on, everything else zero).
func NewSettings(opts ...Option) Settings {
	s := Settings{Witness: true}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	if s.Budget <= 0 {
		s.Budget = DefaultBudget
	}
	return s
}

// WithBudget bounds the search to n nodes per fed action (see
// Settings.Budget).
func WithBudget(n int) Option { return func(s *Settings) { s.Budget = n } }

// WithWitness toggles witness assembly on positive verdicts.
func WithWitness(on bool) Option { return func(s *Settings) { s.Witness = on } }

// WithTemporalAbortOrder selects the temporal Abort-Order variant of the
// SLin checker.
func WithTemporalAbortOrder(on bool) Option {
	return func(s *Settings) { s.TemporalAbortOrder = on }
}

// WithExact forces the exact search engines on entry points that would
// otherwise dispatch to an ADT-specialized fast-path checker (see
// Settings.Exact; DESIGN.md, decision 15).
func WithExact(on bool) Option { return func(s *Settings) { s.Exact = on } }
