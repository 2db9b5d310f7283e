package lin

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// Session is an incremental linearizability checker (checker API v2,
// DESIGN.md decision 11): actions are fed one at a time, and a growing
// trace is re-checked in time proportional to the new actions instead of
// from scratch.
//
// The engine maintains the frontier of all reachable search
// configurations after the actions fed so far. The per-action transition
// relation never looks ahead in the trace, so the frontier after k
// actions is independent of the future and Feed advances it in place:
//
//   - an invocation only adds its input to the pending-inputs multiset
//     (every configuration's availability is derived from it);
//   - a response replaces the frontier by its successor set: each
//     configuration either has the response claim an unclaimed chain
//     entry or extends the chain through available inputs, deduplicated
//     across configurations — after which its input leaves the pending
//     multiset.
//
// The fed trace is linearizable iff the frontier is non-empty, and a
// NotLinearizable verdict is final: no continuation can revive an empty
// frontier. One-shot Check is this engine fed a whole trace, with the
// response lookahead only a complete trace allows (checkStreaming);
// verdicts agree on every prefix (the session property tests and
// diffcheck.LinPrefixes assert it).
//
// Configuration identity (DESIGN.md, decision 20; the cfg type has the
// details). A configuration is its commit chain's end state plus the
// chain's unclaimed entries: the open operations it has already
// linearized, each with the output it was linearized to. Nothing else
// can influence a future transition, so claimed entries are never
// stored and chain order is not part of the identity: configurations
// that committed the same operations in different orders are one
// configuration, within one response's extension search as much as
// across responses. The frontier is therefore at most
// |states| · (|outputs|+1)^k wide for k open operations, whatever the
// history's length — |states| · 2^k one-shot, where the lookahead keeps
// each open operation unlinearized or at an output it will return — and
// a configuration's size and expansion cost are a function of k alone;
// configuration structs are pooled across feeds to keep steady-state
// allocation flat (only the session's one interner grows with the
// symbol alphabet).
//
// The chain itself survives only where a consumer needs it: with
// check.WithWitness every configuration points into one shared
// parent-linked chain of values, so any surviving representative
// reconstructs a full linearization (E18's comparison arm measures what
// that retains). Bounded-memory streaming runs switch witnesses off.
//
// One budget (check.WithBudget) spans the whole session — or, with
// check.WithFeedBudget, is rebased at every Feed so a heavy-tailed
// action cannot starve later feeds; check.WithMemoLimit bounds the
// frontier size (exceeding it returns ErrMemo — frontier configurations
// are live state and cannot be dropped soundly). Errors
// (budget, memo limit, context cancellation, non-sig actions) are
// terminal: the session sticks to the error and reports verdict
// Unknown; budget and memo errors wrap their sentinel with the feed
// index, frontier width, open-operation count and nodes spent in the
// feed that gave up.
//
// A Session is not safe for concurrent use by multiple goroutines.
type Session struct {
	ctx    context.Context
	f      adt.Folder
	set    check.Settings
	budget int

	in *trace.Interner
	// invoked is the multiset of currently pending inputs: incremented at
	// an invocation, decremented once its response's expansion is done.
	invoked trace.SparseMultiset
	// pending holds the open invocation of each client that has one.
	pending map[trace.ClientID]pendingInv

	frontier []*cfg
	nodes    int
	// feedBase is the nodes value at the current Feed's entry; spend
	// charges against nodes−feedBase when FeedBudget is set (always 0
	// with the default lifetime budget).
	feedBase int
	fed      int
	// look is the response lookahead of a one-shot check (nil for every
	// session a caller can feed further; see lookahead).
	look *lookahead

	err   error  // terminal error, sticky
	notWF string // non-empty once the fed trace went ill-formed, sticky

	// Recycled search state: configuration structs (with their entry
	// storage) retired when a frontier is replaced, the visited set of
	// the response being expanded, and the availability scratch slice.
	cfgPool  []*cfg
	visited  map[trace.Digest]struct{}
	availBuf []trace.SymCount
	// audit shadows the deduplication digests with full identities under
	// the memocheck build tag; a zero-size type of no-op methods otherwise.
	audit memoAudit

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
	// one chunk plus the longest cut-free stretch. cutFed actions lie
	// behind the last cut and cutSt is its answer: a fallback seeds the
	// exact session with those states and replays only the log. Without a
	// cut, cutFed is 0 and the seed is the empty state.
	cuts   cutter
	cutDue bool // a chunk filled since the last ask
	cutFed int
	cutSt  []adt.State
}

// cutter is a streaming core that can summarize a quiescent past. At a
// point where no operation is open, every configuration of the exact
// engine is an end state with no unclaimed entries (decision 20), so
// the past is the set of states the fed trace's linearizations end in.
// cutStates returns exactly that set — or false when the core cannot
// tell it, leaving its last answer as it was — and is only asked while
// no operation is open. The answer lives in the core's storage and
// stays valid until the next call.
type cutter interface {
	cutStates() ([]adt.State, bool)
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
	// idx is the invocation's trace index; maintained (and used) only by
	// the fast paths.
	idx int
}

// cfg is one frontier configuration: the end state of a commit chain
// and the chain's unclaimed entries — syms[i] was linearized to output
// outs[i] and no response has claimed it yet — in ascending symbol
// order (untagged duplicates sit side by side). Configurations are
// immutable once installed in a frontier, own their entry storage, and
// are identified by dig: the end state's hash plus the commutative sum
// of trace.HashOutput over the entries, with no position in it.
// Everything a future transition can observe is in the digest and
// nothing else is, so deduplication merges exactly the configurations
// with identical futures.
//
// The remaining fields are not part of the identity. n is the chain's
// length; with witnesses, chain is its last node and pos[i] the length
// of the prefix ending at entry i — what a claim of that entry records
// in the witness trail.
type cfg struct {
	end  adt.State
	syms []trace.Sym
	outs []trace.Value
	dig  trace.Digest

	n     int
	pos   []int
	chain *chainNode
	// asn is the assignment trail (response index -> claimed prefix
	// length) that produced this configuration, for witness assembly;
	// nil when witnesses are off.
	asn *asnNode
}

// chainNode is one commit of a retained chain, linked towards the
// chain's start and shared by every configuration extending it.
type chainNode struct {
	prev *chainNode
	val  trace.Value
}

type asnNode struct {
	prev *asnNode
	res  int
	k    int
}

// maxPool bounds the retired-configuration pool, as a backstop against
// a transiently huge frontier parking an unbounded free list.
const maxPool = 4096

// NewSession starts an incremental check of an initially empty trace
// against ADT f. See Session for the engine and option semantics.
func NewSession(ctx context.Context, f adt.Folder, opts ...check.Option) *Session {
	return newSessionSettings(ctx, f, check.NewSettings(opts...))
}

// NewSessionFast is NewSession with fast-path dispatch (DESIGN.md,
// decision 15): when folder f has a streaming specialized core
// (register, consensus, mutex, stack) and check.WithExact was not
// requested, Feed costs O(1) amortized per action instead of a frontier
// expansion, and no budget is spent while the trace stays inside the
// core's fragment (Nodes then counts fed actions). The first action
// outside the fragment falls back transparently: the recorded trace is
// replayed through the exact frontier engine — spending budget as an
// exact session would — and the session continues exactly. With
// check.WithWitness(false) the record starts at the last quiescent cut
// (DESIGN.md, decision 26): the exact engine is seeded with the states
// the core reported there and replays only what followed. Verdicts agree
// with NewSession on every prefix either way.
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
	frontier := make([]*cfg, len(states))
	for i, st := range states {
		frontier[i] = &cfg{end: st, dig: trace.HashString(string(st))}
	}
	return &Session{
		ctx:      ctx,
		f:        f,
		set:      set,
		budget:   set.BudgetOr(DefaultBudget),
		in:       trace.NewInterner(),
		pending:  map[trace.ClientID]pendingInv{},
		frontier: frontier,
		fed:      fed,
		visited:  map[trace.Digest]struct{}{},
	}
}

// spend charges n search nodes against the session budget (rebased per
// Feed under FeedBudget) and polls the context at ctxPollMask
// boundaries.
func (s *Session) spend(n int) error {
	if n <= 0 {
		return nil
	}
	s.nodes += n
	if s.nodes-s.feedBase > s.budget {
		return ErrBudget
	}
	if s.nodes&ctxPollMask < n {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of actions fed so far.
func (s *Session) Len() int { return s.fed }

// Nodes returns the cumulative number of search nodes spent, plus — for
// fast-path sessions — one node per action the specialized core
// processed (fast-path nodes are not charged against the budget).
func (s *Session) Nodes() int { return s.nodes + s.fastNodes }

// Feed appends action a to the trace under check and advances the
// frontier. The returned error is terminal (budget or memo exhaustion,
// context cancellation, an action outside sig_T fed as a switch is
// instead treated as ill-formedness, matching Check); ill-formed traces
// yield a NotLinearizable verdict, not an error.
func (s *Session) Feed(a trace.Action) error {
	if s.err != nil {
		return s.err
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return err
	}
	start := s.nodes
	if s.set.FeedBudget {
		s.feedBase = start
	}
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
		s.pending[a.Client] = pendingInv{input: a.Input}
		s.invoked.Add(s.in.Sym(a.Input), 1)
		return s.stick(s.spend(len(s.frontier)), idx, len(s.pending), start)
	case trace.Res:
		st, open := s.pending[a.Client]
		if !open || st.input != a.Input {
			s.notWF = "trace is not well-formed"
			return nil
		}
		k := len(s.pending)
		delete(s.pending, a.Client)
		return s.stick(s.expand(a, idx), idx, k, start)
	default:
		// Switch actions do not belong to sig_T; Check classifies such
		// traces as ill-formed.
		s.notWF = "trace is not well-formed"
	}
	return nil
}

// stick makes a non-nil err of feed idx the session's terminal error.
// Budget and memo exhaustion say where the search gave up: the width of
// the frontier being expanded, the operations open during the feed and
// the nodes it spent since start.
func (s *Session) stick(err error, idx, open, start int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBudget) || errors.Is(err, ErrMemo) {
		err = fmt.Errorf("%w (feed %d: %d configurations, %d open operations, %d nodes)",
			err, idx, len(s.frontier), open, s.nodes-start)
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
		if s.rec != nil {
			s.recFull = append(s.recFull, s.rec)
		}
		s.rec = make(trace.Trace, 0, min(recChunk, max(recChunkMin, idx-s.cutFed)))
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
// dropped up to here and its current chunk kept for what follows.
func (s *Session) cut() {
	s.cutDue = false
	st, ok := s.cuts.cutStates()
	if !ok {
		return
	}
	s.cutSt, s.cutFed = st, s.fed
	clear(s.recFull)
	s.rec, s.recFull = s.rec[:0], s.recFull[:0]
}

// fastFallback replays the recorded trace, chunk by chunk, through an
// exact session and adopts its entire state. Without a cut that session
// starts fresh, so every later Feed (and the current verdict) behaves as
// if the session had been exact from the start: the replay spends budget
// from zero, exactly as an exact session fed the same actions would
// have. After a cut it starts from the cut's states with the cut's
// actions behind it (newSessionAt) and replays only the log: the same
// verdicts, with the nodes and budget spend of the suffix alone. Either
// way the replay stops at the exact session's first terminal error.
func (s *Session) fastFallback() error {
	chunks := append(s.recFull, s.rec)
	states := s.cutSt
	if s.cutFed == 0 {
		states = []adt.State{s.f.Empty()}
	}
	ex := newSessionAt(s.ctx, s.f, s.set, s.cutFed, states)
	s.fast, s.cuts, s.rec, s.recFull, s.cutSt = nil, nil, nil, nil, nil
	var err error
	for _, c := range chunks {
		if err = ex.FeedAll(c); err != nil {
			break
		}
	}
	s.in = ex.in
	s.invoked = ex.invoked
	s.pending = ex.pending
	s.frontier = ex.frontier
	s.nodes = ex.nodes
	s.feedBase = ex.feedBase
	s.fed = ex.fed
	s.err = ex.err
	s.notWF = ex.notWF
	s.cfgPool, s.visited, s.availBuf = ex.cfgPool, ex.visited, ex.availBuf
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
// or the session's terminal error.
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
		r.Witness = s.witness(s.frontier[0])
	}
	return r, nil
}

// witness reconstructs the linearization function of one surviving
// configuration: its retained chain is the maximal commit history, and
// the assignment trail maps each response index to its claimed prefix
// length.
func (s *Session) witness(c *cfg) Witness {
	hist := make(trace.History, c.n)
	for i, nd := c.n-1, c.chain; nd != nil; i, nd = i-1, nd.prev {
		hist[i] = nd.val
	}
	w := Witness{}
	for n := c.asn; n != nil; n = n.prev {
		w[n.res] = hist[:n.k].Clone()
	}
	return w
}

// expand replaces the frontier by its successor set under response a.
// Successors own their storage, so the replaced frontier's
// configurations — and every duplicate emission — return to the pool.
func (s *Session) expand(a trace.Action, resIdx int) error {
	asym := s.in.Sym(a.Input)
	old := s.frontier
	if s.look != nil {
		// This response closes its own extension or claims an entry made
		// earlier: what it linearizes on the way is left to later ones.
		s.look.future[symOut{asym, a.Output}]--
	}
	// One visited set is shared between the extension searches of all
	// configurations, seeded with the configurations themselves: a
	// partial extension equal to one of them is cut at once, since that
	// configuration's own expansion emits its successors (and its claims
	// besides).
	clear(s.visited)
	s.audit.reset()
	for _, c := range old {
		s.visited[c.dig] = struct{}{}
		s.audit.note(c.dig, c.end, c.syms, c.outs)
	}
	next, err := check.ExpandFrontier(old, s.spend,
		func(c *cfg) trace.Digest { return c.dig },
		func(kept, dup *cfg) *cfg {
			s.audit.note(kept.dig, kept.end, kept.syms, kept.outs)
			s.audit.note(dup.dig, dup.end, dup.syms, dup.outs)
			s.putCfg(dup)
			return kept
		},
		func(c *cfg, emit func(*cfg)) error {
			return s.expandCfg(c, a, asym, resIdx, emit)
		})
	if err != nil {
		return err
	}
	if s.set.MemoLimit > 0 && len(next) > s.set.MemoLimit {
		return ErrMemo
	}
	for _, c := range old {
		s.putCfg(c)
	}
	s.frontier = next
	// Every successor claimed a chain entry for this response, so the
	// operation is no longer open in any of them.
	s.invoked.Add(asym, -1)
	return nil
}

// expandCfg emits every successor of configuration c under response a:
// the claim of a matching unclaimed entry, plus every chain extension
// through available inputs that closes with the response's own input —
// every branch a commit can take, up to configuration identity.
func (s *Session) expandCfg(c *cfg, a trace.Action, asym trace.Sym, resIdx int, emit func(*cfg)) error {
	// Option 1: claim an unclaimed entry carrying the response's input
	// and output. Equal entries (untagged duplicates) have equal
	// successors, so the first one stands for all.
	for i, sym := range c.syms {
		if sym == asym && c.outs[i] == a.Output {
			emit(s.claim(c, i, resIdx))
			break
		}
	}
	// Option 2: extend the chain with fresh inputs from the derived
	// availability (pending inputs minus those c already linearized, in
	// ascending symbol order), the last being the response's own input —
	// which c may have linearized already, leaving nothing to close with.
	avail := s.invoked.AppendDiff(s.availBuf[:0], c.syms)
	s.availBuf = avail
	closeAt := -1
	for i, e := range avail {
		if e.Sym == asym {
			closeAt = i
			break
		}
	}
	if closeAt < 0 {
		return nil
	}
	x := extension{c: c, a: a, resIdx: resIdx, avail: avail, closeAt: closeAt, emit: emit}
	return s.extend(&x, c.end, c.dig.Sub(trace.HashString(string(c.end))))
}

// claim returns c with entry i claimed by resIdx, that is, without it.
func (s *Session) claim(c *cfg, i, resIdx int) *cfg {
	n := s.newCfg()
	n.end, n.n, n.chain = c.end, c.n, c.chain
	n.syms = append(append(n.syms, c.syms[:i]...), c.syms[i+1:]...)
	n.outs = append(append(n.outs, c.outs[:i]...), c.outs[i+1:]...)
	n.dig = c.dig.Sub(trace.HashOutput(c.syms[i], c.outs[i]))
	if s.set.Witness {
		n.pos = append(append(n.pos, c.pos[:i]...), c.pos[i+1:]...)
		n.asn = &asnNode{prev: c.asn, res: resIdx, k: c.pos[i]}
	}
	return n
}

// extension is the invariant part of one configuration's extension
// search under one response, plus the appended symbols and their outputs
// along the current search path (siblings share the backing arrays:
// emitted successors copy them).
type extension struct {
	c       *cfg
	a       trace.Action
	resIdx  int
	avail   []trace.SymCount // counts are decremented and restored in place
	closeAt int              // index in avail of the response's own input
	emit    func(*cfg)
	syms    []trace.Sym
	outs    []trace.Value
}

// extend explores the chain extensions of x.c beyond x.syms, emitting a
// successor wherever the extension can close with the response's input.
// st is the extended chain's end state and open the digest of its
// unclaimed entries, so open plus a state's hash is the identity a
// partial extension would have as a configuration; it keys the visited
// set, and a second search path into the same partial configuration —
// the same operations appended in another order, or from another
// configuration — is cut there, its successors being the ones already
// emitted. Every arrival at a partial extension costs one node.
func (s *Session) extend(x *extension, st adt.State, open trace.Digest) error {
	// Close: append the response's own input as a claimed element.
	if s.f.Out(st, x.a.Input) == x.a.Output {
		x.emit(s.closeExt(x, s.f.Step(st, x.a.Input), open))
	}
	// Continue: append any available input as an intermediate element —
	// except the last copy of the response's own input, after which no
	// extension could close.
	for i := range x.avail {
		sym := x.avail[i].Sym
		if x.avail[i].N <= 0 || (i == x.closeAt && x.avail[i].N == 1) {
			continue
		}
		if err := s.spend(1); err != nil {
			return err
		}
		in := s.in.Value(sym)
		stIn, outIn := s.f.Step(st, in), s.f.Out(st, in)
		if s.look != nil && s.look.unclaimable(x, sym, outIn) {
			continue
		}
		openIn := open.Add(trace.HashOutput(sym, outIn))
		dig := openIn.Add(trace.HashString(string(stIn)))
		if memocheckEnabled {
			s.audit.note(dig, stIn, slices.Concat(x.c.syms, x.syms, []trace.Sym{sym}),
				slices.Concat(x.c.outs, x.outs, []trace.Value{outIn}))
		}
		if _, hit := s.visited[dig]; hit {
			continue
		}
		s.visited[dig] = struct{}{}
		x.avail[i].N--
		x.syms, x.outs = append(x.syms, sym), append(x.outs, outIn)
		err := s.extend(x, stIn, openIn)
		x.syms, x.outs = x.syms[:len(x.syms)-1], x.outs[:len(x.outs)-1]
		x.avail[i].N++
		if err != nil {
			return err
		}
	}
	return nil
}

// closeExt materializes the successor configuration that extends x.c by
// the current search path and closes with the response's input, claimed
// at once by x.resIdx (so it never becomes an entry); stEnd is the
// chain's end state after the closing append and open the digest of the
// successor's entries.
func (s *Session) closeExt(x *extension, stEnd adt.State, open trace.Digest) *cfg {
	c := x.c
	n := s.newCfg()
	n.end, n.n, n.chain = stEnd, c.n+len(x.syms)+1, c.chain
	n.dig = open.Add(trace.HashString(string(stEnd)))
	n.syms, n.outs = append(n.syms, c.syms...), append(n.outs, c.outs...)
	if s.set.Witness {
		n.pos = append(n.pos, c.pos...)
	}
	// The intermediate appends linearize operations that stay open: each
	// becomes an entry, inserted behind the entries of no greater symbol.
	for j, sym := range x.syms {
		at := len(n.syms)
		for at > 0 && n.syms[at-1] > sym {
			at--
		}
		n.syms = slices.Insert(n.syms, at, sym)
		n.outs = slices.Insert(n.outs, at, x.outs[j])
		if s.set.Witness {
			n.pos = slices.Insert(n.pos, at, c.n+j+1)
			n.chain = &chainNode{prev: n.chain, val: s.in.Value(sym)}
		}
	}
	if s.set.Witness {
		n.chain = &chainNode{prev: n.chain, val: x.a.Input}
		n.asn = &asnNode{prev: c.asn, res: x.resIdx, k: n.n}
	}
	return n
}

// newCfg returns a configuration struct, recycled when the pool has
// one: zeroed except for its empty entry slices, whose storage the
// caller reuses.
func (s *Session) newCfg() *cfg {
	if n := len(s.cfgPool); n > 0 {
		c := s.cfgPool[n-1]
		s.cfgPool = s.cfgPool[:n-1]
		return c
	}
	return new(cfg)
}

// putCfg retires a configuration: the struct and its entry storage,
// which no successor shares, return to the session pool.
func (s *Session) putCfg(c *cfg) {
	if len(s.cfgPool) < maxPool {
		*c = cfg{syms: c.syms[:0], outs: c.outs[:0], pos: c.pos[:0]}
		s.cfgPool = append(s.cfgPool, c)
	}
}

// lookahead is what a one-shot check knows that an online session
// cannot (DESIGN.md, decision 21): the responses still to come. An entry
// — an open operation linearized to an output — leaves a configuration
// only when a later response with that input and output claims it, and
// at the end of the trace a configuration holds no more entries of a
// symbol than operations of that symbol never respond. So where every
// operation of a symbol responds, a configuration holding more (symbol,
// output) entries than responses with that pair remain cannot survive,
// and the extension that would create it is not made.
//
// The rule counts per symbol, not per operation: Validity is blind to
// which occurrence of an input a commit history ends with, so a
// response may claim an entry made while only another client's equal
// invocation was pending (TestRepeatedEventsDivergence).
type lookahead struct {
	// future counts the responses not yet expanded, by input and output.
	future map[symOut]int
	// never counts, per input, the invocations that never respond.
	never map[trace.Sym]int
}

type symOut struct {
	sym trace.Sym
	out trace.Value
}

// newLookahead counts the responses and never-responding invocations
// of the well-formed trace t, interning its inputs in feed order.
func newLookahead(in *trace.Interner, t trace.Trace) *lookahead {
	l := &lookahead{future: map[symOut]int{}, never: map[trace.Sym]int{}}
	for _, a := range t {
		switch sym := in.Sym(a.Input); a.Kind {
		case trace.Inv:
			l.never[sym]++
		case trace.Res:
			l.never[sym]--
			l.future[symOut{sym, a.Output}]++
		}
	}
	return l
}

// unclaimable reports whether appending sym with output out to
// extension x leaves more unclaimed (sym, out) entries than later
// responses can claim.
func (l *lookahead) unclaimable(x *extension, sym trace.Sym, out trace.Value) bool {
	if l.never[sym] > 0 {
		return false
	}
	held := 1
	for i, s := range x.c.syms {
		if s == sym && x.c.outs[i] == out {
			held++
		}
	}
	for i, s := range x.syms {
		if s == sym && x.outs[i] == out {
			held++
		}
	}
	return held > l.future[symOut{sym, out}]
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
	s.look = newLookahead(s.in, t)
	if err := s.FeedAll(t); err != nil {
		return Result{Nodes: s.Nodes()}, err
	}
	return s.Result()
}
