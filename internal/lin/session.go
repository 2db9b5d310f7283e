package lin

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// Session is an incremental linearizability checker (checker API v2,
// DESIGN.md decision 11): actions are fed one at a time, and a growing
// trace is re-checked in time proportional to the new actions instead of
// from scratch.
//
// The engine maintains the breadth counterpart of Check's depth-first
// search: the frontier of all reachable search configurations — commit
// chains with their claimed-prefix marks, interned and deduplicated by
// their incremental 128-bit digests — after the actions fed so far.
// Because the per-action transition relation of the search never looks
// ahead in the trace, the frontier after k actions is independent of the
// future, so Feed advances it in place:
//
//   - an invocation only adds its input to the pending-inputs multiset
//     (every configuration's availability is derived from it);
//   - a response replaces the frontier by its successor set: each
//     configuration either has the response claim an unused chain prefix
//     or extends the chain through available inputs, exactly Check's
//     branch set, deduplicated across configurations — after which its
//     input leaves the pending multiset.
//
// The fed trace is linearizable iff the frontier is non-empty, and a
// NotLinearizable verdict is final: no continuation can revive an empty
// frontier. Verdicts therefore provably agree with one-shot Check on
// every prefix (the session property tests assert this on randomized
// traces).
//
// Streaming memory bound (DESIGN.md, decision 17). With compaction on
// (check.WithCompaction, the default) a configuration's fully-claimed
// chain prefix — inert under every future transition, since claims only
// set marks and extension only appends — is dropped from storage and
// replaced by a trace.ChainPrefix summary carrying its length and (with
// witnesses) its values. Configuration identity is keyed on
// future-relevant content only (decision 19): the chain's end state, the
// multiset of pending operations the chain has already linearized
// (availability is the pending inputs minus it), and the retained
// suffix entries — symbol, claim mark and output, at suffix-relative
// positions. A dropped prefix's order therefore leaves the identity:
// configurations that committed the same operations in different orders
// merge at deduplication once their prefixes compact. That merge is
// what bounds the frontier on capture-shaped histories (long runs of
// overlapping operations), where order-distinct identities would keep
// every commit-order permutation alive; it is sound because a
// configuration's future transitions — claims check suffix entries,
// extensions fold from the end state over the availability — are fully
// determined by the keyed content, and the verdict is existential.
// A configuration's size, and the cost of expanding it, are then a
// function of the operations open at once, not of the trace's length or
// symbol alphabet (only the session's one interner grows with the
// latter); configuration structs, open-operation sets and mark slices
// are pooled across feeds to keep steady-state allocation flat. With
// check.WithWitness the dropped input values are retained
// (shared, once per summary) so witness assembly still reconstructs
// full commit histories; bounded-memory streaming runs switch witnesses
// off.
//
// One budget (check.WithBudget) spans the whole session, spent with the
// same per-step granularity as Check — or, with check.WithFeedBudget,
// is rebased at every Feed so a heavy-tailed action cannot starve later
// feeds; check.WithMemoLimit bounds the frontier size (exceeding it
// returns ErrMemo — frontier configurations are live state and cannot
// be dropped soundly). check.WithWorkers(n > 1) expands each response's
// frontier on n workers over a sharded deduplication set. Errors
// (budget, memo limit, context cancellation, non-sig actions) are
// terminal: the session sticks to the error and reports verdict
// Unknown.
//
// A Session is not safe for concurrent use by multiple goroutines (its
// workers parallelize internally).
type Session struct {
	ctx    context.Context
	f      adt.Folder
	set    check.Settings
	budget int
	// pooled gates the configuration/mark-slice pools and the
	// per-expansion scratch: they are single-threaded caches, so
	// parallel expansion (Workers > 1) allocates instead.
	pooled bool
	// dagSleep gates the DAG-level sleep-set carry (decision 17): the
	// sleep set a configuration was emitted with seeds the next
	// response's extension search, so the decision-12 reduction also
	// prunes orders split across responses. Duplicate emissions merge
	// by sleep-set intersection, which the parallel path's sharded
	// first-wins deduplication cannot do — so the carry is sequential
	// (and POR) only.
	dagSleep bool

	in *trace.Interner
	// invoked is the multiset of currently pending inputs: incremented at
	// an invocation, decremented once its response's expansion is done.
	invoked trace.SparseMultiset
	// pending holds the open invocation of each client that has one.
	pending map[trace.ClientID]pendingInv

	frontier []*cfg
	nodes    atomic.Int64
	// feedBase is the nodes value at the current Feed's entry; spend
	// charges against nodes−feedBase when FeedBudget is set (always 0
	// with the default lifetime budget). Written only between
	// expansions, so concurrent spend calls read it race-free.
	feedBase int64
	// pruned counts extension branches the sleep-set reduction skipped
	// (check.WithPOR; atomic because expansion workers prune
	// concurrently).
	pruned atomic.Int64
	fed    int

	err   error  // terminal error, sticky
	notWF string // non-empty once the fed trace went ill-formed, sticky

	// Recycled search state (pooled sessions only): configuration
	// structs (with their open-operation set storage) and used-mark
	// slices retired when a frontier is replaced, per-response visited
	// sets, and the availability scratch slice.
	cfgPool  []*cfg
	usedPool [][]bool
	visPool  trace.SetPool[trace.Digest]
	availBuf []trace.SymCount

	// fast, when non-nil, is the ADT-specialized streaming core the
	// session delegates to instead of the frontier engine (DESIGN.md,
	// decision 15; NewSessionFast). The fed trace is recorded in rec so
	// that a fragment exit can fall back by replaying it through a fresh
	// exact session — after which the session is indistinguishable from
	// an exact one fed the same actions (frontier, budget spend and
	// verdicts included). Fast-path work never spends the budget; it is
	// accounted separately in fastNodes (one per fed action).
	fast      FastChecker
	fastRej   bool // core rejected: NotLinearizable, final
	fastNodes int
	rec       trace.Trace
}

// pendingInv is one client's open invocation, for the well-formedness
// bookkeeping (the streaming twin of Check's WellFormed precheck).
type pendingInv struct {
	input trace.Value
	// idx is the invocation's trace index; maintained (and used) only by
	// the fast paths.
	idx int
}

// cfg is one frontier configuration: a commit-history chain with its
// claimed-prefix marks. Configurations are immutable once installed in
// a frontier — successors copy what they change and share the rest —
// and are identified by their behavioral digest: end state, the pending
// operations already linearized, and the retained suffix's (relative
// position, symbol, claim mark, output) entries. Everything a future
// transition can observe is in the digest and nothing else is, so
// deduplication merges exactly the configurations with identical futures
// — in particular, compacted configurations whose dropped prefixes
// committed the same operations in different orders.
//
// pre, when non-nil, summarizes a compacted fully-claimed chain prefix
// (trace.ChainPrefix): suffix index k is absolute chain position
// pre.N + k (witness assembly needs the absolute claimed lengths).
//
// elems is the multiset of pending operations this configuration has
// already linearized — the symbols at its unclaimed chain positions, at
// most one entry per open client. The session's pending inputs minus it
// are the inputs an extension may still append. It equals the full-chain
// element multiset minus the inputs responded to so far, and the latter
// is the same for every configuration of a frontier, so keying identity
// on it partitions configurations exactly as the full-chain multiset
// would (decision 19). Each configuration owns its elems storage.
type cfg struct {
	pre   *trace.ChainPrefix
	syms  []trace.Sym
	outs  []trace.Value
	used  []bool
	end   adt.State
	elems trace.SparseMultiset
	dig   trace.Digest
	// sleep is the carried sleep set of the DAG-level reduction: the
	// sleep set in force when this configuration was emitted, seeding
	// the next response's extension search (zero unless dagSleep).
	sleep check.SleepSet
	// asn is the assignment trail (response index -> claimed prefix
	// length) that produced this configuration, for witness assembly;
	// nil when witnesses are off.
	asn *asnNode
}

type asnNode struct {
	prev *asnNode
	res  int
	k    int
}

// compactMin is the fully-claimed prefix length a configuration must
// accumulate before compaction absorbs it. It is deliberately small:
// permutation-equivalent configurations only merge once the entries
// they ordered differently leave the retained suffix, so an eagerly
// compacted window is what keeps the frontier overlap-bounded on
// capture-shaped histories. The remaining chunking just amortizes
// summary construction; the suffix copy itself is within a constant of
// the claim path's mark copy.
const compactMin = 4

// maxPool bounds the retired-configuration pools, as a backstop against
// a transiently huge frontier parking unbounded free lists.
const maxPool = 4096

// NewSession starts an incremental check of an initially empty trace
// against ADT f. See Session for the engine and option semantics.
func NewSession(ctx context.Context, f adt.Folder, opts ...check.Option) *Session {
	return newSessionSettings(ctx, f, check.NewSettings(opts...))
}

// NewSessionFast is NewSession with fast-path dispatch (DESIGN.md,
// decision 15): when folder f has a streaming specialized core
// (register, consensus) and check.WithExact was not requested, Feed
// costs O(1) amortized per action instead of a frontier expansion, and
// no budget is spent while the trace stays inside the core's fragment
// (Nodes then counts fed actions). The first action outside the
// fragment falls back transparently: the recorded trace is replayed
// through the exact frontier engine — spending budget as an exact
// session would — and the session continues exactly. Verdicts agree
// with NewSession on every prefix either way.
func NewSessionFast(ctx context.Context, f adt.Folder, opts ...check.Option) *Session {
	set := check.NewSettings(opts...)
	s := newSessionSettings(ctx, f, set)
	if !set.Exact {
		s.fast = NewFastChecker(f)
	}
	return s
}

func newSessionSettings(ctx context.Context, f adt.Folder, set check.Settings) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{
		ctx:      ctx,
		f:        f,
		set:      set,
		budget:   set.BudgetOr(DefaultBudget),
		pooled:   set.Workers <= 1,
		dagSleep: set.POR && set.Workers <= 1,
		in:       trace.NewInterner(),
		pending:  map[trace.ClientID]pendingInv{},
		frontier: []*cfg{{end: f.Empty(), dig: trace.HashString(string(f.Empty()))}},
	}
}

// spend charges n search nodes against the session budget (rebased per
// Feed under FeedBudget) and polls the context at ctxPollMask
// boundaries. Safe for concurrent use by expansion workers.
func (s *Session) spend(n int) error {
	if n <= 0 {
		return nil
	}
	v := s.nodes.Add(int64(n))
	if v-s.feedBase > int64(s.budget) {
		return ErrBudget
	}
	if v&ctxPollMask < int64(n) {
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
func (s *Session) Nodes() int { return int(s.nodes.Load()) + s.fastNodes }

// Pruned returns the cumulative number of extension branches the
// partial-order reduction skipped (0 with check.WithPOR(false)).
func (s *Session) Pruned() int { return int(s.pruned.Load()) }

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
	if s.set.FeedBudget {
		s.feedBase = s.nodes.Load()
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
		if err := s.spend(len(s.frontier)); err != nil {
			s.err = err
			return err
		}
	case trace.Res:
		st, open := s.pending[a.Client]
		if !open || st.input != a.Input {
			s.notWF = "trace is not well-formed"
			return nil
		}
		delete(s.pending, a.Client)
		if err := s.expand(a, idx); err != nil {
			s.err = err
			return err
		}
	default:
		// Switch actions do not belong to sig_T; Check classifies such
		// traces as ill-formed.
		s.notWF = "trace is not well-formed"
	}
	return nil
}

// feedFast is Feed's fast-path delegate: the same well-formedness
// bookkeeping as the frontier path, with the core deciding the verdict
// and FastExit triggering the fallback replay. A rejected (or
// ill-formed) verdict is final, but subsequent actions still maintain
// the well-formedness state so reasons keep matching the exact session.
func (s *Session) feedFast(a trace.Action) error {
	idx := s.fed
	s.fed++
	s.rec = append(s.rec, a)
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
	default:
		// Switch actions do not belong to sig_T; Check classifies such
		// traces as ill-formed.
		s.notWF = "trace is not well-formed"
	}
	return nil
}

// fastFallback replays the recorded trace through a fresh exact session
// and adopts its entire state, so every later Feed (and the current
// verdict) behaves as if the session had been exact from the start. The
// replay spends budget from zero, exactly as an exact session fed the
// same actions would have.
func (s *Session) fastFallback() error {
	rec := s.rec
	s.fast, s.rec = nil, nil
	ex := newSessionSettings(s.ctx, s.f, s.set)
	err := ex.FeedAll(rec)
	s.in = ex.in
	s.invoked = ex.invoked
	s.pending = ex.pending
	s.frontier = ex.frontier
	s.nodes.Store(ex.nodes.Load())
	s.feedBase = ex.feedBase
	s.pruned.Store(ex.pruned.Load())
	s.fed = ex.fed
	s.err = ex.err
	s.notWF = ex.notWF
	s.cfgPool, s.usedPool = ex.cfgPool, ex.usedPool
	s.visPool, s.availBuf = ex.visPool, ex.availBuf
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
		return Result{Nodes: s.Nodes(), Pruned: s.Pruned()}, s.err
	}
	if s.notWF != "" {
		return Result{OK: false, Reason: s.notWF, Nodes: s.Nodes(), Pruned: s.Pruned()}, nil
	}
	if s.fast != nil {
		if s.fastRej {
			return Result{OK: false, Reason: "no linearization function exists", Nodes: s.Nodes()}, nil
		}
		r := Result{OK: true, Nodes: s.Nodes()}
		if s.set.Witness {
			r.Witness = s.fast.Witness()
		}
		return r, nil
	}
	if len(s.frontier) == 0 {
		return Result{OK: false, Reason: "no linearization function exists", Nodes: s.Nodes(), Pruned: s.Pruned()}, nil
	}
	r := Result{OK: true, Nodes: s.Nodes(), Pruned: s.Pruned()}
	if s.set.Witness {
		r.Witness = s.witness(s.frontier[0])
	}
	return r, nil
}

// witness reconstructs the linearization function of one surviving
// configuration: its chain (compacted prefix values plus retained
// suffix) is the maximal commit history, and the assignment trail maps
// each response index to its claimed prefix length (absolute, so
// compaction never shifts it).
func (s *Session) witness(c *cfg) Witness {
	preN := c.pre.Len()
	hist := make(trace.History, preN+len(c.syms))
	if preN > 0 {
		copy(hist, c.pre.Vals)
	}
	for i, sym := range c.syms {
		hist[preN+i] = s.in.Value(sym)
	}
	w := Witness{}
	for n := c.asn; n != nil; n = n.prev {
		w[n.res] = hist[:n.k].Clone()
	}
	return w
}

// expand replaces the frontier by its successor set under response a.
// Retired source configurations (and merged duplicates) return to the
// session pools; with compaction on, every successor's fully-claimed
// prefix is absorbed into a shared summary before installation.
func (s *Session) expand(a trace.Action, resIdx int) error {
	asym := s.in.Sym(a.Input)
	var merge func(kept, dup *cfg) *cfg
	if s.dagSleep {
		// Two expansion paths reached the same configuration digest with
		// possibly different carried sleep sets: only symbols slept on
		// both stay asleep (union would prune orders one path still
		// owes). The duplicate's struct and marks recycle.
		merge = func(kept, dup *cfg) *cfg {
			kept.sleep = kept.sleep.Intersect(dup.sleep)
			s.putCfg(dup)
			return kept
		}
	}
	old := s.frontier
	next, err := check.ExpandFrontier(s.ctx, old, s.set, s.spend,
		func(c *cfg) trace.Digest { return c.dig },
		merge,
		func(c *cfg, emit func(*cfg)) error {
			return s.expandCfg(c, a, asym, resIdx, emit)
		})
	if err != nil {
		if errors.Is(err, check.ErrFrontierLimit) {
			return ErrMemo
		}
		return err
	}
	if s.set.Compact {
		s.compactFrontier(next)
		// Compaction re-keys identities, so configurations distinct at
		// expansion time may coincide now — merge them immediately rather
		// than letting duplicates double the next response's work.
		next = s.dedupFrontier(next)
	}
	// Successors never alias a source's struct or marks (claims copy the
	// marks, closures build fresh arrays), so the replaced frontier's
	// configurations recycle wholesale.
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
// claims of matching unused prefix lengths, plus every chain extension
// through available inputs that closes with the response's own input —
// exactly the branch set of the depth-first commit handler, enumerated
// exhaustively instead of short-circuiting on the first success.
func (s *Session) expandCfg(c *cfg, a trace.Action, asym trace.Sym, resIdx int, emit func(*cfg)) error {
	// Option 1: claim an existing unused prefix length (compacted
	// positions are all claimed, so scanning the suffix is exhaustive).
	for k, sym := range c.syms {
		if !c.used[k] && sym == asym && c.outs[k] == a.Output {
			emit(s.claim(c, k, resIdx))
		}
	}
	// Option 2: extend the chain with fresh inputs from the derived
	// availability (pending inputs minus those c already linearized, in
	// ascending symbol order), the last being the response's own input.
	var avail []trace.SymCount
	if s.pooled {
		avail = s.invoked.AppendDiff(s.availBuf[:0], &c.elems)
		s.availBuf = avail
	} else {
		avail = s.invoked.AppendDiff(nil, &c.elems)
	}
	if len(avail) == 0 {
		return nil
	}
	closeAt := -1
	for i, e := range avail {
		if e.Sym == asym {
			closeAt = i
			break
		}
	}
	var visited map[trace.Digest]struct{}
	if s.pooled {
		visited = s.visPool.Get()
		defer s.visPool.Put(visited)
	} else {
		visited = make(map[trace.Digest]struct{}, 8)
	}
	var seed check.SleepSet
	if s.dagSleep {
		seed = c.sleep
	}
	return s.extend(c, a, asym, resIdx, avail, closeAt, visited, nil, nil, c.end, c.dig, seed, emit)
}

// claim returns c with suffix position k (absolute position pre.N + k,
// which the witness trail records; the digest re-keys at the relative
// position) marked claimed by resIdx. A claim only flips a mark on an
// existing chain entry — it commutes with every extension append — so
// the carried sleep set passes through unfiltered. The claimed operation
// stops being open, so it leaves the linearized-open set.
func (s *Session) claim(c *cfg, k, resIdx int) *cfg {
	pos := c.pre.Len() + k
	used := s.getUsed(len(c.used))
	copy(used, c.used)
	used[k] = true
	n := s.newCfg()
	elems := n.elems // recycled storage
	elems.Set(&c.elems)
	elems.Add(c.syms[k], -1)
	*n = cfg{
		pre:   c.pre,
		syms:  c.syms,
		outs:  c.outs,
		used:  used,
		end:   c.end,
		elems: elems,
		dig: c.dig.Sub(trace.HashElem(k, c.syms[k], false)).Add(trace.HashElem(k, c.syms[k], true)).
			Sub(c.elems.Digest()).Add(elems.Digest()),
	}
	if s.dagSleep {
		n.sleep = c.sleep
	}
	if s.set.Witness {
		n.asn = &asnNode{prev: c.asn, res: resIdx, k: pos + 1}
	}
	return n
}

// extend explores chain extensions of c drawn from avail (whose counts it
// decrements and restores in place; closeAt indexes the entry of the
// response's own input, -1 when none is available), emitting a successor
// whenever the extension can close with the response's input.
// ext/extOuts are the appended symbols and their outputs along the
// current search path (shared backing across siblings is safe: emit
// snapshots copy them); st tracks the extended chain's end state, and
// dig — the configuration digest extended per append at suffix-relative
// positions — keys the visited set, pruning search paths that rebuilt
// an identical extension (the emitted configuration's own identity is
// recomputed over its final content in closeExt).
//
// sleep carries the sleep set of the partial-order reduction exactly as
// in the depth-first engine (DESIGN.md, decision 12): a pruned successor
// always has an emitted permutation-equivalent successor whose future
// behaviour maps one-to-one, so frontier emptiness — the session's
// verdict — is preserved. Under dagSleep the seed is the configuration's
// carried set and each emitted successor records the set in force at its
// closing append, filtered by independence with that append — extending
// the same argument across response boundaries (decision 17).
func (s *Session) extend(c *cfg, a trace.Action, asym trace.Sym, resIdx int,
	avail []trace.SymCount, closeAt int, visited map[trace.Digest]struct{},
	ext []trace.Sym, extOuts []trace.Value, st adt.State, dig trace.Digest,
	sleep check.SleepSet, emit func(*cfg)) error {

	if err := s.spend(1); err != nil {
		return err
	}
	if _, hit := visited[dig]; hit {
		return nil
	}
	visited[dig] = struct{}{}

	// Close: append the response's own input as a claimed element.
	if closeAt >= 0 && avail[closeAt].N > 0 && s.f.Out(st, a.Input) == a.Output {
		stIn := s.f.Step(st, a.Input)
		var carry check.SleepSet
		if s.dagSleep {
			carry = sleep.FilterIndependent(s.f, s.in, st, a.Input, stIn, a.Output)
		}
		emit(s.closeExt(c, ext, extOuts, stIn, dig, asym, a, resIdx, carry))
	}
	// Continue: append any available input as an intermediate element.
	for i := range avail {
		sym := avail[i].Sym
		if avail[i].N <= 0 {
			continue
		}
		if s.set.POR && sleep.Has(sym) {
			s.pruned.Add(1)
			continue
		}
		in := s.in.Value(sym)
		stIn, outIn := s.f.Step(st, in), s.f.Out(st, in)
		var childSleep check.SleepSet
		if s.set.POR {
			childSleep = sleep.FilterIndependent(s.f, s.in, st, in, stIn, outIn)
		}
		avail[i].N--
		pos := len(c.syms) + len(ext)
		err := s.extend(c, a, asym, resIdx, avail, closeAt, visited,
			append(ext, sym), append(extOuts, outIn),
			stIn, dig.Add(trace.HashElem(pos, sym, false)), childSleep, emit)
		avail[i].N++
		if err != nil {
			return err
		}
		if s.set.POR {
			sleep = sleep.Add(sym)
		}
	}
	return nil
}

// closeExt materializes the successor configuration that extends c by ext
// and closes with the response's input, claimed by resIdx; stEnd is the
// chain's end state after the closing append and carry the sleep set the
// successor carries into the next response. The successor's digest is
// computed over its final content (behavDig) — the search-path digest
// only served the visited set.
func (s *Session) closeExt(c *cfg, ext []trace.Sym, extOuts []trace.Value,
	stEnd adt.State, dig trace.Digest, asym trace.Sym, a trace.Action, resIdx int,
	carry check.SleepSet) *cfg {

	n := len(c.syms) + len(ext) + 1
	syms := make([]trace.Sym, 0, n)
	syms = append(append(append(syms, c.syms...), ext...), asym)
	outs := make([]trace.Value, 0, n)
	outs = append(append(append(outs, c.outs...), extOuts...), a.Output)
	used := s.getUsed(n)
	copy(used, c.used)
	for i := len(c.used); i < n; i++ {
		used[i] = false
	}
	used[n-1] = true
	abs := c.pre.Len() + n
	cf := s.newCfg()
	// The intermediate appends linearize operations that stay open; the
	// closing one is claimed at once and never enters the open set.
	elems := cf.elems // recycled storage
	elems.Set(&c.elems)
	for _, sym := range ext {
		elems.Add(sym, 1)
	}
	*cf = cfg{
		pre:   c.pre,
		syms:  syms,
		outs:  outs,
		used:  used,
		end:   stEnd,
		elems: elems,
		sleep: carry,
	}
	cf.dig = cf.behavDig()
	if s.set.Witness {
		cf.asn = &asnNode{prev: c.asn, res: resIdx, k: abs}
	}
	return cf
}

// behavDig computes c's behavioral identity digest from scratch: the
// chain's end state, the linearized-open multiset, and each retained
// suffix entry's (relative position, symbol, claim mark, output)
// components. Incremental maintainers (claim's mark flip) and the
// compaction re-key agree with it by construction.
func (c *cfg) behavDig() trace.Digest {
	d := trace.HashString(string(c.end)).Add(c.elems.Digest())
	for k, sym := range c.syms {
		d = d.Add(trace.HashElem(k, sym, c.used[k]))
		d = d.Add(trace.HashOutput(k, c.outs[k]))
	}
	return d
}

// compactFrontier absorbs each new configuration's fully-claimed chain
// prefix (when at least compactMin long) into a shared ChainPrefix
// summary. Compaction changes representation AND identity: suffix
// positions shift, so the digest is recomputed over the retained
// content — after which configurations whose dropped prefixes ordered
// the same operations differently carry equal digests and merge at the
// next response's deduplication. The per-pass cache shares summaries
// between configurations compacting through an identical prefix (keyed
// by the prefix's order-sensitive content digest — summaries carry
// ordered values, so only truly identical prefixes may share; the
// same collision trust as the memo maps).
func (s *Session) compactFrontier(next []*cfg) {
	var cache map[trace.Digest]*trace.ChainPrefix
	for _, c := range next {
		run := 0
		for run < len(c.syms) && c.used[run] {
			run++
		}
		if run < compactMin {
			continue
		}
		if cache == nil {
			cache = map[trace.Digest]*trace.ChainPrefix{}
		}
		s.compactCfg(c, run, cache)
	}
}

// compactCfg drops c's first run (all claimed) suffix entries into a
// summary cumulative with any prior one. The retained suffix is copied
// into right-sized arrays so the dropped storage is actually released —
// re-slicing would pin the old backing arrays and void the memory bound.
func (s *Session) compactCfg(c *cfg, run int, cache map[trace.Digest]*trace.ChainPrefix) {
	preN := c.pre.Len()
	var pd trace.Digest
	if c.pre != nil {
		pd = c.pre.Dig
	}
	for i := 0; i < run; i++ {
		pd = pd.Add(trace.HashElem(preN+i, c.syms[i], true))
		pd = pd.Add(trace.HashOutput(preN+i, c.outs[i]))
	}
	pre, ok := cache[pd]
	if !ok {
		var vals []trace.Value
		if s.set.Witness {
			vals = make([]trace.Value, 0, preN+run)
			if c.pre != nil {
				vals = append(vals, c.pre.Vals...)
			}
			for i := 0; i < run; i++ {
				vals = append(vals, s.in.Value(c.syms[i]))
			}
		}
		pre = &trace.ChainPrefix{N: preN + run, Dig: pd, Vals: vals}
		cache[pd] = pre
	}
	// Only claimed entries are dropped, so elems (the unclaimed ones) is
	// untouched; the stored suffix, and with it the identity digest, changes.
	c.pre = pre
	c.syms = append([]trace.Sym(nil), c.syms[run:]...)
	c.outs = append([]trace.Value(nil), c.outs[run:]...)
	nu := s.getUsed(len(c.used) - run)
	copy(nu, c.used[run:])
	if s.pooled && len(s.usedPool) < maxPool {
		s.usedPool = append(s.usedPool, c.used)
	}
	c.used = nu
	c.dig = c.behavDig()
}

// dedupFrontier merges frontier entries whose digests coincided after
// compaction re-keyed them, in place and order-preserving. Carried
// sleep sets intersect exactly as ExpandFrontier's merge does; the
// duplicates recycle.
func (s *Session) dedupFrontier(next []*cfg) []*cfg {
	seen := make(map[trace.Digest]int, len(next))
	out := next[:0]
	for _, c := range next {
		if i, dup := seen[c.dig]; dup {
			if s.dagSleep {
				out[i].sleep = out[i].sleep.Intersect(c.sleep)
			}
			s.putCfg(c)
			continue
		}
		seen[c.dig] = len(out)
		out = append(out, c)
	}
	return out
}

// newCfg returns a configuration struct, recycled when pooled: zeroed
// except for elems, whose contents are unspecified and whose storage the
// caller reuses.
func (s *Session) newCfg() *cfg {
	if n := len(s.cfgPool); n > 0 {
		c := s.cfgPool[n-1]
		s.cfgPool = s.cfgPool[:n-1]
		return c
	}
	return new(cfg)
}

// getUsed returns a mark slice of length n with unspecified contents
// (callers fully initialize it), recycled from the pool when one with
// sufficient capacity is near the top.
func (s *Session) getUsed(n int) []bool {
	if s.pooled {
		stop := len(s.usedPool) - 4
		for i := len(s.usedPool) - 1; i >= 0 && i >= stop; i-- {
			if cap(s.usedPool[i]) >= n {
				u := s.usedPool[i][:n]
				last := len(s.usedPool) - 1
				s.usedPool[i] = s.usedPool[last]
				s.usedPool = s.usedPool[:last]
				return u
			}
		}
	}
	return make([]bool, n)
}

// putCfg retires a configuration: its struct (keeping the storage of its
// open-operation set, which no successor shares) and mark slice return
// to the session pools — never its chain arrays, which successors may
// share. No-op for parallel sessions — the pools are single-threaded
// caches.
func (s *Session) putCfg(c *cfg) {
	if !s.pooled {
		return
	}
	if c.used != nil && len(s.usedPool) < maxPool {
		s.usedPool = append(s.usedPool, c.used)
	}
	if len(s.cfgPool) < maxPool {
		*c = cfg{elems: c.elems}
		s.cfgPool = append(s.cfgPool, c)
	}
}

// checkStreaming is the breadth-engine one-shot path of Check
// (WithWorkers(n > 1)): it feeds the whole trace through a Session.
func checkStreaming(ctx context.Context, f adt.Folder, t trace.Trace, set check.Settings) (Result, error) {
	s := newSessionSettings(ctx, f, set)
	if err := s.FeedAll(t); err != nil {
		return Result{Nodes: s.Nodes(), Pruned: s.Pruned()}, err
	}
	return s.Result()
}
