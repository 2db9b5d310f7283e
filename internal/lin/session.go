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

	// open counts the operations invoked and not yet responded to;
	// pending holds each client's open Op for Feed, which pairs a
	// response with its invocation by client (Invoke and Respond callers
	// pair them themselves).
	open    int
	pending map[trace.ClientID]Op
	fed     int

	err   error  // terminal error, sticky
	notWF string // non-empty once the fed trace went ill-formed, sticky

	// fast, when non-nil, is the ADT-specialized streaming core the
	// session delegates to instead of the frontier engine (DESIGN.md,
	// decisions 15 and 36; NewSession). The session does for it what
	// every core would repeat: an open operation's Op carries its slot to
	// the response, and seen holds the digests of the inputs fed since the
	// last cut, so an input equal to one of them (or a digest alike)
	// leaves the fragment before the core sees it. The fed trace is
	// recorded so that a fragment exit can fall back by replaying it
	// through an exact session. The log is chunked: rec is the chunk being
	// appended to and recFull the full ones before it. A new chunk is as
	// long as the log so far (between recChunkMin and recChunk), so the
	// log is never copied and a short per-key session holds at most twice
	// its length. A one-shot check logs nothing: its whole trace, in
	// whole, is the log. Fast-path work never spends the budget; it is
	// accounted separately in fastNodes (one per fed action).
	fast      FastChecker
	fastRej   bool // core rejected: NotLinearizable, final
	fastNodes int
	seen      digestTable
	rec       trace.Trace
	recFull   []trace.Trace
	whole     trace.Trace
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
// next call. A core that answers restarts from its answer (decision 35):
// every operation fed so far precedes every later one, so what follows
// is checked from the answer's states, and the core forgets what only
// the past needed — its tables hold the stretch since the cut.
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

// Op is the handle of one open operation (DESIGN.md, decision 37):
// Invoke returns it and the operation's Respond takes it back, so a
// caller that knows which invocation a response answers — the capture
// drainer does — pairs the two itself, and Feed pairs them by client.
// Client and Input name the invocation; the rest is what the session
// keeps of it: its trace index and the core's slot on the fast path, its
// input's symbol on the exact one. An Op stays valid across a fast→exact
// fallback: the exact path interns the input of an Op the core opened.
type Op struct {
	Client trace.ClientID
	Input  trace.Value
	idx    int
	slot   int32
	sym    trace.Sym
	exact  bool // sym is the exact engine's
}

// notWellFormed is the reason a trace that breaks a client's alternation
// of invocations and responses is not linearizable.
const notWellFormed = "trace is not well-formed"

// NewSession starts an incremental check of an initially empty trace
// against ADT f. See Session for the engine and option semantics.
//
// When f has a streaming specialized core (register, consensus, queue,
// mutex, stack) and check.WithExact was not requested, the session runs
// the core (DESIGN.md, decisions 15 and 36): Feed costs O(1) amortized
// per action instead of a frontier expansion, and no budget is spent
// while the trace stays inside the core's fragment (Nodes then counts
// fed actions). The first action outside the fragment falls back
// transparently: the recorded trace is replayed through the exact
// frontier engine — spending budget as an exact session would — and the
// session continues exactly. With check.WithWitness(false) the record
// starts at the last quiescent cut (DESIGN.md, decisions 26 and 33): the
// exact engine starts in the states the core reported there, or replays
// the core's seed, and then replays only what followed. Verdicts agree
// with the exact session on every prefix either way.
func NewSession(ctx context.Context, f adt.Folder, opts ...check.Option) *Session {
	return newSessionSettings(ctx, f, check.NewSettings(opts...))
}

func newSessionSettings(ctx context.Context, f adt.Folder, set check.Settings) *Session {
	s := newSessionAt(ctx, f, set, 0, []adt.State{f.Empty()})
	if !set.Exact {
		s.fast = NewFastChecker(f, set.Witness)
		_, s.seen.collide = fastFolder(f)
		if c, ok := s.fast.(cutter); ok && !set.Witness {
			s.cuts = c
		}
	}
	return s
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
	s := &Session{set: set, pending: map[trace.ClientID]Op{}, fed: fed}
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
// context cancellation); ill-formed traces — an invocation while the
// client has one open, a response that answers none of its client's, an
// action outside sig_T such as a switch, matching Check — yield a
// NotLinearizable verdict, not an error. Feed is Invoke and Respond with
// the pairing checked: it keeps each client's open Op.
func (s *Session) Feed(a trace.Action) error {
	if s.notWF == "" {
		switch a.Kind {
		case trace.Inv:
			if _, open := s.pending[a.Client]; !open {
				op, err := s.Invoke(a.Client, a.Input)
				if err == nil {
					s.pending[a.Client] = op
				}
				return err
			}
		case trace.Res:
			if op, open := s.pending[a.Client]; open && op.Input == a.Input {
				delete(s.pending, a.Client)
				return s.Respond(op, a.Output)
			}
		}
	}
	if _, err := s.admit(); err != nil {
		return err
	}
	s.fed++
	s.notWF = notWellFormed // final: later actions only count
	return nil
}

// admit starts a feed: it returns the session's terminal error, or the
// context's, which it makes terminal, or else the meter's node count at
// the feed's start.
func (s *Session) admit() (start int, err error) {
	if s.err != nil {
		return 0, s.err
	}
	if err := s.meter.Ctx.Err(); err != nil {
		s.err = err
		return 0, err
	}
	return s.meter.StartFeed(), nil
}

// Invoke appends client c's invocation of in to the trace under check
// and returns the operation's handle for its Respond. The caller vouches
// for the pairing Feed checks: c has no operation open. The returned
// error is terminal, as Feed's.
func (s *Session) Invoke(c trace.ClientID, in trace.Value) (Op, error) {
	op := Op{Client: c, Input: in}
	start, err := s.admit()
	if err != nil {
		return op, err
	}
	op.idx = s.fed
	s.fed++
	if s.fast != nil {
		return op, s.invokeFast(&op)
	}
	op.sym, op.exact = s.in.Sym(in), true
	s.open++
	s.Pool.Add(op.sym, 1)
	return op, s.stick(s.meter.Spend(len(s.frontier)), op.idx, s.open, start)
}

// Respond appends the response out to the operation op, open since its
// Invoke on this session, and advances the frontier. Each Op is answered
// once. The returned error is terminal, as Feed's.
func (s *Session) Respond(op Op, out trace.Value) error {
	start, err := s.admit()
	if err != nil {
		return err
	}
	idx := s.fed
	s.fed++
	if s.fast != nil {
		return s.respondFast(op, out, idx)
	}
	if !op.exact {
		op.sym = s.in.Sym(op.Input) // opened by the core before a fallback
	}
	k := s.open
	s.open--
	if err := s.Expand(op.sym, out, idx); err != nil {
		return s.stick(err, idx, k, start)
	}
	// Every successor claimed a chain entry for this response, so the
	// operation is no longer open in any of them.
	s.Pool.Add(op.sym, -1)
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

// invokeFast and respondFast are Invoke's and Respond's fast-path
// delegates: the core decides the verdict, and FastExit — the core's, or
// an input seen since the last cut — triggers the fallback replay, whose
// log ends with the action being fed. An invocation's slot rides in its
// Op to the response. A rejected verdict is final, but later actions
// still count the open operations, so a fallback's verdicts and reasons
// keep matching the exact session's.
func (s *Session) invokeFast(op *Op) error {
	if s.whole == nil {
		s.log(trace.Invoke(op.Client, 1, op.Input))
	}
	if !s.fastRej {
		st := FastExit
		if !s.seen.add(op.Input) {
			op.slot, st = s.fast.Inv(op.Input, op.idx)
		}
		switch st {
		case FastExit:
			return s.fastFallback()
		case FastReject:
			s.fastRej = true
		}
	}
	s.fastNodes++
	s.open++
	return nil
}

func (s *Session) respondFast(op Op, out trace.Value, idx int) error {
	if s.whole == nil {
		s.log(trace.Response(op.Client, 1, op.Input, out))
	}
	if !s.fastRej {
		switch s.fast.Res(op.Input, out, op.slot, op.idx, idx) {
		case FastExit:
			return s.fastFallback()
		case FastReject:
			s.fastRej = true
		}
	}
	s.fastNodes++
	s.open--
	if s.cutDue && s.open == 0 && !s.fastRej {
		s.cut()
	}
	return nil
}

// log appends a to the replay log, and makes a cut due once a chunk
// fills.
func (s *Session) log(a trace.Action) {
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
			s.rec = make(trace.Trace, 0, min(recChunk, max(recChunkMin, s.fed-1-s.cutFed)))
		}
	}
	s.rec = append(s.rec, a)
	if len(s.rec) == cap(s.rec) && s.cuts != nil {
		s.cutDue = true
	}
}

// cut asks the core, at a quiescent point, for the states the fed
// trace's linearizations end in; if it answers, the core has restarted
// from them, the inputs seen are forgotten — a later input equal to one
// of them can claim nothing before the cut — and the replay log is
// dropped up to here and its current chunk kept for what follows, the
// full ones parked.
func (s *Session) cut() {
	s.cutDue = false
	st, ok := s.cuts.cutStates()
	if !ok {
		return
	}
	s.seen.reset()
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
// too. A one-shot check neither cuts nor logs: its fallback replays the
// trace so far from the start, under the lookahead, and counts the
// replay's nodes alone, so it spends and reports what the exact Check
// would. Either way the replay stops at the exact session's first
// terminal error.
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
	if s.whole != nil {
		ex.Lookahead(s.whole, nil)
		chunks, s.fastNodes = []trace.Trace{s.whole[:s.fed]}, 0
	}
	err := ex.FeedAll(seed)
	ex.fed = max(ex.fed, s.cutFed)
	s.fast, s.cuts, s.rec, s.recFull, s.cutSt, s.seen = nil, nil, nil, nil, nil, digestTable{}
	for _, c := range chunks {
		if err != nil {
			break
		}
		err = ex.FeedAll(c)
	}
	// Feed's own pairs stay in s.pending: their Ops are valid on ex.
	s.Frontier = ex.Frontier
	s.open, s.fed, s.err, s.notWF = ex.open, ex.fed, ex.err, ex.notWF
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
// through one session — a core's, when NewSession would run one. Only
// here is the trace known to be complete, so only here is the lookahead
// installed on the exact engine; FeedAll stays online, since its session
// may be fed further and a later response may claim what the lookahead
// would have pruned. A core's session keeps the trace instead of a log
// and never cuts, so a fragment exit replays the trace so far through
// the exact engine under the lookahead (fastFallback).
func checkStreaming(ctx context.Context, f adt.Folder, t trace.Trace, set check.Settings) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if !t.WellFormed() {
		return Result{OK: false, Reason: notWellFormed}, nil
	}
	s := newSessionSettings(ctx, f, set)
	s.whole, s.cuts = t, nil
	if s.fast == nil {
		s.Lookahead(t, nil)
	}
	if err := s.FeedAll(t); err != nil {
		return Result{Nodes: s.Nodes()}, err
	}
	return s.Result()
}
