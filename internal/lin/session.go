package lin

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// Session is an incremental linearizability checker (checker API v2,
// DESIGN.md decision 11): actions are fed one at a time, and a growing
// trace is re-checked in time proportional to the new actions instead of
// from scratch.
//
// The engine is the embedded Frontier: the set of all reachable search
// configurations after the actions fed so far. The per-action transition
// relation never looks ahead in the trace, so the frontier after k
// actions is independent of the future and Feed advances it in place:
//
//   - an invocation only adds its input to the pool of pending inputs
//     (every configuration's availability is derived from it);
//   - a response replaces the frontier by its successor set
//     (Frontier.Expand) — after which its input leaves the pool.
//
// The fed trace is linearizable iff the frontier is non-empty, and a
// NotLinearizable verdict is final: no continuation can revive an empty
// frontier. One-shot Check is this engine fed a whole trace, with the
// response lookahead only a complete trace allows (checkStreaming);
// verdicts agree on every prefix (the session property tests and
// diffcheck.LinPrefixes assert it).
//
// Configuration identity (DESIGN.md, decision 20; Frontier and cfg have
// the details): a configuration is its chain's end state plus its
// unclaimed entries, so the frontier is at most
// |states| · (|outputs|+1)^k wide for k open operations, whatever the
// history's length — |states| · 2^k one-shot — and a configuration's
// size and expansion cost are a function of k alone. The chain itself
// survives only with check.WithWitness, shared by every configuration
// extending it (E18's comparison arm measures what that retains);
// bounded-memory streaming runs switch witnesses off.
//
// The budget (check.WithBudget) bounds what each Feed spends (DESIGN.md,
// decision 34), so a session checks an unbounded stream and a
// heavy-tailed action cannot starve later feeds; since Expand's
// successors cost a node each, it bounds the frontier's width as well.
// Errors (budget, context cancellation, non-sig actions) are terminal:
// the session sticks to the error and reports verdict Unknown; a budget
// error wraps ErrBudget with the feed index, frontier width,
// open-operation count and nodes spent in the feed that gave up.
//
// A Session is not safe for concurrent use by multiple goroutines.
type Session struct {
	Frontier
	set check.Settings

	// pending holds the open invocation of each client that has one.
	pending map[trace.ClientID]pendingInv
	fed     int

	err   error  // terminal error, sticky
	notWF string // non-empty once the fed trace went ill-formed, sticky

	// fast, when non-nil, is the ADT-specialized streaming core the
	// session delegates to instead of the frontier engine (DESIGN.md,
	// decision 15; NewSessionFast). The fed trace is recorded so that a
	// fragment exit can fall back by replaying it through an exact
	// session. The log is chunked: rec is the chunk being appended to and
	// recFull the full ones before it. A new chunk is as long as the log
	// so far (between recChunkMin and recChunk), so the log is never
	// copied and a short per-key session holds at most twice its length.
	// Fast-path work never spends the budget; it is accounted separately
	// in fastNodes (one per fed action).
	fast      FastChecker
	fastRej   bool // core rejected: NotLinearizable, final
	fastNodes int
	rec       trace.Trace
	recFull   []trace.Trace
	// Quiescent cuts (DESIGN.md, decision 26). cuts is the core's cutter
	// in a witness-off session, nil otherwise (and in tests that turn cuts
	// off). Once a log chunk fills, the next quiescent point asks the core
	// for the states its linearizations end in; if it answers, the log is
	// dropped up to there and the current chunk reused, so the log holds
	// one chunk plus the longest cut-free stretch. The full chunks a cut
	// drops stay parked past recFull's length, emptied, and come back as
	// the next stretch's chunks, so the log allocates only to grow past
	// its longest stretch so far. cutFed actions lie
	// behind the last cut and cutSt is its answer: a fallback starts the
	// exact session in those states — or, when the answer has none, from
	// the core's seed (cutter) — and replays only the log. Without a cut,
	// cutFed is 0 and the exact session starts in the empty state.
	cuts   cutter
	cutDue bool // a chunk filled since the last ask
	cutFed int
	cutSt  []adt.State
}

// cutter is a streaming core that can summarize a quiescent past. At a
// point where no operation is open, every configuration of the exact
// engine is an end state with no unclaimed entries (decision 20), so
// the past is the set of states the fed trace's linearizations end in.
// A cut has one of two answers (decision 33). cutStates returns exactly
// that set, or no states when the set is too large to list: then the
// core marks the cut and cutSeed, asked only at a fallback, returns its
// seed — complete operations whose replay from the empty state reaches
// exactly that set (nil from a core that always lists its states).
// cutStates returns false when the core cannot tell, leaving its last
// answer as it was, and is only asked while no operation is open. A
// listed answer lives in the core's storage and stays valid until the
// next call.
type cutter interface {
	cutStates() ([]adt.State, bool)
	cutSeed() trace.Trace
}

// recChunkMin and recChunk are the lengths of the first and of the
// longest chunks of the fast path's replay log.
const (
	recChunkMin = 16
	recChunk    = 1024
)

// pendingInv is one client's open invocation, for the well-formedness
// bookkeeping (the streaming twin of Check's WellFormed precheck).
type pendingInv struct {
	input trace.Value
	// idx is the invocation's trace index, maintained (and used) only by
	// the fast paths; sym is the input's symbol, interned only by the
	// frontier path.
	idx int
	sym trace.Sym
}

// NewSession starts an incremental check of an initially empty trace
// against ADT f. See Session for the engine and option semantics.
func NewSession(ctx context.Context, f adt.Folder, opts ...check.Option) *Session {
	return newSessionSettings(ctx, f, check.NewSettings(opts...))
}

// NewSessionFast is NewSession with fast-path dispatch (DESIGN.md,
// decision 15): when folder f has a streaming specialized core
// (register, consensus, queue, mutex, stack) and check.WithExact was not
// requested, Feed costs O(1) amortized per action instead of a frontier
// expansion, and no budget is spent while the trace stays inside the
// core's fragment (Nodes then counts fed actions). The first action
// outside the fragment falls back transparently: the recorded trace is
// replayed through the exact frontier engine — spending budget as an
// exact session would — and the session continues exactly. With
// check.WithWitness(false) the record starts at the last quiescent cut
// (DESIGN.md, decisions 26 and 33): the exact engine starts in the
// states the core reported there, or replays the core's seed, and then
// replays only what followed. Verdicts agree with NewSession on every
// prefix either way.
func NewSessionFast(ctx context.Context, f adt.Folder, opts ...check.Option) *Session {
	set := check.NewSettings(opts...)
	s := newSessionSettings(ctx, f, set)
	if !set.Exact {
		s.fast = NewFastChecker(f, set.Witness)
		if c, ok := s.fast.(cutter); ok && !set.Witness {
			s.cuts = c
		}
	}
	return s
}

func newSessionSettings(ctx context.Context, f adt.Folder, set check.Settings) *Session {
	return newSessionAt(ctx, f, set, 0, []adt.State{f.Empty()})
}

// newSessionAt starts an exact session fed actions already, all of them
// complete, whose linearizations end in the given distinct states: the
// frontier holds one configuration per state with no unclaimed entries
// (decision 20), which is the exact engine's own frontier at such a
// point. Len counts the fed actions too, and feed indices continue from
// them.
func newSessionAt(ctx context.Context, f adt.Folder, set check.Settings, fed int, states []adt.State) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{set: set, pending: map[trace.ClientID]pendingInv{}, fed: fed}
	s.init(f, trace.NewInterner(), &Meter{Ctx: ctx, Budget: set.Budget, BudgetErr: ErrBudget},
		set.Witness, set.Witness)
	s.frontier = make([]*cfg, len(states))
	for i, st := range states {
		h := trace.HashString(string(st))
		s.frontier[i] = &cfg{end: st, endH: h, dig: h}
	}
	return s
}

// Len returns the number of actions fed so far.
func (s *Session) Len() int { return s.fed }

// Nodes returns the cumulative number of search nodes spent, plus — for
// fast-path sessions — one node per action the specialized core
// processed (fast-path nodes are not charged against the budget).
func (s *Session) Nodes() int { return s.meter.Nodes + s.fastNodes }

// Feed appends action a to the trace under check and advances the
// frontier. The returned error is terminal (budget exhaustion,
// context cancellation, an action outside sig_T fed as a switch is
// instead treated as ill-formedness, matching Check); ill-formed traces
// yield a NotLinearizable verdict, not an error.
func (s *Session) Feed(a trace.Action) error {
	if s.err != nil {
		return s.err
	}
	if err := s.meter.Ctx.Err(); err != nil {
		s.err = err
		return err
	}
	start := s.meter.StartFeed()
	if s.fast != nil {
		return s.feedFast(a)
	}
	idx := s.fed
	s.fed++
	if s.notWF != "" {
		return nil // verdict already final
	}
	switch a.Kind {
	case trace.Inv:
		if _, open := s.pending[a.Client]; open {
			s.notWF = "trace is not well-formed"
			return nil
		}
		sym := s.in.Sym(a.Input)
		s.pending[a.Client] = pendingInv{input: a.Input, sym: sym}
		s.Pool.Add(sym, 1)
		return s.stick(s.meter.Spend(len(s.frontier)), idx, len(s.pending), start)
	case trace.Res:
		st, open := s.pending[a.Client]
		if !open || st.input != a.Input {
			s.notWF = "trace is not well-formed"
			return nil
		}
		k := len(s.pending)
		delete(s.pending, a.Client)
		if err := s.Expand(st.sym, a.Output, idx); err != nil {
			return s.stick(err, idx, k, start)
		}
		// Every successor claimed a chain entry for this response, so the
		// operation is no longer open in any of them.
		s.Pool.Add(st.sym, -1)
	default:
		// Switch actions do not belong to sig_T; Check classifies such
		// traces as ill-formed.
		s.notWF = "trace is not well-formed"
	}
	return nil
}

// stick makes a non-nil err of feed idx the session's terminal error.
// Budget exhaustion says where the search gave up: the width of the
// frontier being expanded, the operations open during the feed and the
// nodes it spent since start.
func (s *Session) stick(err error, idx, open, start int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBudget) {
		err = fmt.Errorf("%w (feed %d: %d configurations, %d open operations, %d nodes)",
			err, idx, len(s.frontier), open, s.meter.Nodes-start)
	}
	s.err = err
	return err
}

// feedFast is Feed's fast-path delegate: the same well-formedness
// bookkeeping as the frontier path, with the core deciding the verdict
// and FastExit triggering the fallback replay. A rejected (or
// ill-formed) verdict is final, but subsequent actions still maintain
// the well-formedness state so reasons keep matching the exact session.
func (s *Session) feedFast(a trace.Action) error {
	idx := s.fed
	s.fed++
	if len(s.rec) == cap(s.rec) {
		// A parked chunk comes back as the full one takes its slot.
		var next trace.Trace
		if n := len(s.recFull); n < cap(s.recFull) {
			next = s.recFull[:n+1][n]
		}
		if s.rec != nil {
			s.recFull = append(s.recFull, s.rec)
		}
		if next != nil {
			s.rec = next[:0]
		} else {
			s.rec = make(trace.Trace, 0, min(recChunk, max(recChunkMin, idx-s.cutFed)))
		}
	}
	s.rec = append(s.rec, a)
	if len(s.rec) == cap(s.rec) && s.cuts != nil {
		s.cutDue = true
	}
	if s.notWF != "" {
		return nil // verdict already final
	}
	switch a.Kind {
	case trace.Inv:
		if _, open := s.pending[a.Client]; open {
			s.notWF = "trace is not well-formed"
			return nil
		}
		if !s.fastRej {
			switch s.fast.Inv(a.Input, idx) {
			case FastExit:
				return s.fastFallback()
			case FastReject:
				s.fastRej = true
			}
		}
		s.fastNodes++
		s.pending[a.Client] = pendingInv{input: a.Input, idx: idx}
	case trace.Res:
		st, open := s.pending[a.Client]
		if !open || st.input != a.Input {
			s.notWF = "trace is not well-formed"
			return nil
		}
		if !s.fastRej {
			switch s.fast.Res(a.Input, a.Output, st.idx, idx) {
			case FastExit:
				return s.fastFallback()
			case FastReject:
				s.fastRej = true
			}
		}
		s.fastNodes++
		delete(s.pending, a.Client)
		if s.cutDue && len(s.pending) == 0 && !s.fastRej {
			s.cut()
		}
	default:
		// Switch actions do not belong to sig_T; Check classifies such
		// traces as ill-formed.
		s.notWF = "trace is not well-formed"
	}
	return nil
}

// cut asks the core, at a quiescent point, for the states the fed
// trace's linearizations end in; if it answers, the replay log is
// dropped up to here and its current chunk kept for what follows, the
// full ones parked.
func (s *Session) cut() {
	s.cutDue = false
	st, ok := s.cuts.cutStates()
	if !ok {
		return
	}
	s.cutSt, s.cutFed = st, s.fed
	for _, c := range s.recFull {
		clear(c) // let what they logged go
	}
	s.rec, s.recFull = s.rec[:0], s.recFull[:0]
}

// fastFallback replays the recorded trace, chunk by chunk, through an
// exact session and adopts its entire state. Without a cut that session
// starts fresh, so every later Feed (and the current verdict) behaves as
// if the session had been exact from the start: the replay spends, feed
// by feed, exactly what an exact session fed the same actions would
// have. After a cut it starts from the cut's states with the cut's
// actions behind it (newSessionAt) and replays only the log: the same
// verdicts, with the nodes of the suffix alone. A cut answered by a seed
// starts from the empty state, replays the seed and then counts the
// cut's actions as fed, so Len continues; the seed's nodes are spent
// too. Either way the replay stops at the exact
// session's first terminal error.
func (s *Session) fastFallback() error {
	chunks := append(s.recFull, s.rec)
	states, fed := s.cutSt, s.cutFed
	var seed trace.Trace
	if states == nil {
		states = []adt.State{s.f.Empty()}
		if fed > 0 {
			seed, fed = s.cuts.cutSeed(), 0
		}
	}
	ex := newSessionAt(s.meter.Ctx, s.f, s.set, fed, states)
	err := ex.FeedAll(seed)
	ex.fed = max(ex.fed, s.cutFed)
	s.fast, s.cuts, s.rec, s.recFull, s.cutSt = nil, nil, nil, nil, nil
	for _, c := range chunks {
		if err != nil {
			break
		}
		err = ex.FeedAll(c)
	}
	s.Frontier = ex.Frontier
	s.pending, s.fed, s.err, s.notWF = ex.pending, ex.fed, ex.err, ex.notWF
	return err
}

// FeedAll feeds every action of t in order, stopping at the first
// terminal error.
func (s *Session) FeedAll(t trace.Trace) error {
	for _, a := range t {
		if err := s.Feed(a); err != nil {
			return err
		}
	}
	return nil
}

// Verdict reports the current three-valued verdict for the trace fed so
// far: Unknown after a terminal error, otherwise Linearizable iff the
// frontier is non-empty and the trace is well-formed.
func (s *Session) Verdict() check.Verdict {
	switch {
	case s.err != nil:
		return check.Unknown
	case s.notWF != "":
		return check.NotLinearizable
	case s.fast != nil:
		if s.fastRej {
			return check.NotLinearizable
		}
		return check.Linearizable
	case len(s.frontier) == 0:
		return check.NotLinearizable
	default:
		return check.Linearizable
	}
}

// Result returns the verdict for the trace fed so far in Check's Result
// form (with a witness on positive verdicts unless WithWitness(false)),
// or the session's terminal error. The witness is the linearization
// function of one surviving configuration: its retained chain is the
// maximal commit history, and its trail maps each response index to its
// claimed prefix.
func (s *Session) Result() (Result, error) {
	if s.err != nil {
		return Result{Nodes: s.Nodes()}, s.err
	}
	if s.notWF != "" {
		return Result{OK: false, Reason: s.notWF, Nodes: s.Nodes()}, nil
	}
	if s.fast != nil {
		if s.fastRej {
			return Result{OK: false, Reason: "no linearization function exists", Nodes: s.Nodes()}, nil
		}
		return Result{OK: true, Nodes: s.Nodes(), Witness: s.fast.Witness()}, nil
	}
	if len(s.frontier) == 0 {
		return Result{OK: false, Reason: "no linearization function exists", Nodes: s.Nodes()}, nil
	}
	r := Result{OK: true, Nodes: s.Nodes()}
	if s.set.Witness {
		r.Witness, _ = s.Trail(0)
	}
	return r, nil
}

// checkStreaming is one-shot Check: the whole trace, if well-formed, fed
// through one session. Only here is the trace known to be complete, so
// only here is the lookahead installed; FeedAll stays online, since its
// session may be fed further and a later response may claim what the
// lookahead would have pruned.
func checkStreaming(ctx context.Context, f adt.Folder, t trace.Trace, set check.Settings) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if !t.WellFormed() {
		return Result{OK: false, Reason: "trace is not well-formed"}, nil
	}
	s := newSessionSettings(ctx, f, set)
	s.Lookahead(t, nil)
	if err := s.FeedAll(t); err != nil {
		return Result{Nodes: s.Nodes()}, err
	}
	return s.Result()
}
