package slin

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// Session is the SLin(m,n) engine (checker API v2, DESIGN.md decisions
// 11 and 25): actions are fed one at a time, and the growing trace's
// verdict is recomputed from the persistent search state instead of from
// scratch. One-shot Check is this session fed the whole trace.
//
// The engine runs once per init-interpretation combination (the ∀ of
// Definition 19): each combination carries the frontier of reachable
// commit-chain configurations after the actions fed so far, anchored at
// that combination's Init-Order baseline L, together with its running
// valid-inputs multiset vi (snapshotted at every index an abort
// obligation refers back to). A chain models the commit histories
// (Init-Order makes each a strict extension of L, Commit-Order orders
// them by strict prefix). Responses replace a frontier by its successor
// set — claims of unused prefix lengths beyond L plus Validity-respecting
// chain extensions closing with the response's input — deduplicated by
// the chains' incremental digests.
//
// Two SLin-specific wrinkles distinguish the session from lin.Session:
//
//   - Init actions change global anchors: a new init interpretation both
//     multiplies the combination set and can shrink every combination's
//     L (the LCP of more histories), which re-anchors chains
//     retroactively. Feeding an init action therefore rebuilds the
//     combinations and replays the fed trace through fresh frontiers
//     (init actions are rare — one per client per phase — so the
//     amortized cost stays incremental); Check knows every init action up
//     front and never replays. For the same reason a NotLinearizable
//     verdict is *not* final before the trace's init actions have all
//     been fed: only lin.Session's verdicts are.
//   - Abort obligations are discharged at verdict time (Verdict/Result)
//     against the surviving configurations under the literal Abort-Order
//     semantics — an abort history must extend every commit history,
//     later ones included; under WithTemporalAbortOrder they filter the
//     frontier inline at the abort.
//
// Streaming memory (DESIGN.md, decision 17). A configuration's inert
// chain prefix — the L anchor plus every leading claimed entry,
// untouchable under all future transitions — is dropped from
// per-configuration storage and replaced by a shared trace.ChainPrefix
// summary. The chain digest is a commutative sum of per-position
// components, so compaction preserves the configuration's memo identity.
// Unlike lin.Session, the summary always retains the dropped input
// values (shared, once per summary): abort discharge reconstructs full
// chain histories, so the session's memory is bounded by one value
// sequence per distinct compacted prefix plus the live suffixes, not
// fully flat. The fed trace itself is recorded only while a replay can
// still need it (init actions possible, fast path active, or the
// reduction still live on an order-sensitive relation); pure streaming
// shapes drop it.
//
// One budget spans the session (replays and verdict-time discharges
// included) — or, with check.WithFeedBudget, the spend counter is
// rebased at every Feed so one heavy-tailed action cannot starve later
// feeds. Budget and memo errors wrap their sentinel with where the
// search gave up: the feed index, the interpretation combinations, the
// configurations across their frontiers, the open operations and the
// nodes spent in that feed (or verdict). On positive verdicts Result
// assembles Witnesses (one per init-interpretation combination) from the
// assignment trails of a surviving configuration unless
// check.WithWitness(false).
type Session struct {
	ctx    context.Context
	f      adt.Folder
	rinit  RInit
	m, n   int
	set    check.Settings
	budget int
	nodes  int
	// feedBase is the nodes value at the current Feed's entry; spend
	// charges against nodes−feedBase when FeedBudget is set (always 0
	// with the default lifetime budget).
	feedBase int
	// por is the live state of the partial-order reduction: it starts as
	// set.POR and flips off permanently at the first abort action fed —
	// abort histories extend chains as sequences, so pruned extension
	// orders become observable (Result.Pruned documents the rationale) —
	// unless the RInit declares its Admits predicate order-insensitive
	// (OrderInsensitive), which keeps the reduction on across aborts.
	// If pruning already happened by then, the frontiers are rebuilt by
	// an unreduced replay, so every verdict equals the one-shot Check of
	// the fed prefix (whose session sets por once, from the whole trace).
	// pruned counts skipped branches.
	por    bool
	pruned int

	// t records the fed trace for replays (init rebuilds, fast-path
	// fallback, POR-disable rebuilds); record is dropped — and t
	// released — once no replay can ever be needed (m == 1, no fast
	// delegate, reduction off or order-insensitive), bounding streaming
	// memory. fed counts fed actions independently of t.
	t      trace.Trace
	record bool
	fed    int
	// whole marks the one-shot session of Check, seeded with every init
	// interpretation of the trace it is about to be fed (seedWhole).
	whole bool

	phase map[trace.ClientID]*phaseTrack
	// open counts the operations pending in the fed trace.
	open     int
	notWF    string
	err      error
	initIdx  []int
	initReps [][]trace.History
	combos   []*combo

	// verdict cache: verAt is the fed length verRes was computed for
	// (-1 when stale).
	verAt  int
	verRes Result

	// fast, when non-nil, is the ADT-specialized streaming core the
	// session delegates to instead of the combination frontiers
	// (DESIGN.md, decision 15; NewSessionFast). Sound only for m == 1,
	// where SLin(1,n) restricted to sig coincides with Lin (Theorem 2):
	// any switch action falls back to the exact engine by replaying the
	// fed trace (s.t) through fresh frontiers, exactly like an init
	// rebuild. Fast-path work never spends the budget; it is accounted
	// separately in fastNodes (one per fed action).
	fast      lin.FastChecker
	fastRej   bool // core rejected: NotLinearizable, final
	fastNodes int
	fastPend  map[trace.ClientID]int // client -> pending invocation's trace index

	// availBuf is the per-expansion availability scratch multiset.
	availBuf trace.SymMultiset
	// audit shadows the successor merge's digests with full chain
	// identities under the memocheck build tag; a zero-size type of no-op
	// methods otherwise.
	audit memoAudit
}

// phaseTrack is the incremental per-client state machine of Definition 34
// ((m,n)-well-formed client sub-traces), mirroring trace.PhaseWellFormed.
type phaseTrack struct {
	state   int // 0 idle, 1 pending, 2 ready, 3 done
	pending trace.Value
}

// combo is the session state of one init-interpretation combination.
type combo struct {
	finit   map[int]trace.History
	L       trace.History
	in      *trace.Interner
	ivi     trace.Multiset
	invoked trace.Multiset
	// vi is the current symbolized valid-inputs multiset; a fresh
	// snapshot is taken whenever it changes, so abort obligations can
	// alias the snapshot current at their index.
	vi          *trace.SymMultiset
	obligations []sobl
	frontier    []*scfg
}

// sobl is an abort obligation: the pending input's interned symbol, the
// switch value to interpret, the valid-inputs snapshot of the abort's
// trace index, and that index (keying the witness's abort history).
type sobl struct {
	sym   trace.Sym
	value trace.Value
	vi    *trace.SymMultiset
	idx   int
}

// scfg is one frontier configuration: a commit-history chain anchored at
// the combination's L (prefix lengths ≤ base are never claimable).
// Configurations are immutable once constructed.
//
// pre, when non-nil, summarizes a compacted inert chain prefix
// (trace.ChainPrefix): suffix index k is absolute chain position
// pre.N + k, dig remains the full-chain digest, and pre.Vals always
// holds the dropped values (abort discharge rebuilds full histories).
// elems stays the FULL chain's element multiset — Validity and
// discharge compare it against vi snapshots — so compaction never
// adjusts it.
type scfg struct {
	pre   *trace.ChainPrefix
	syms  []trace.Sym
	outs  []trace.Value
	used  []bool
	nused int
	base  int // absolute anchor length (len(L)); positions < base unclaimable
	end   adt.State
	elems trace.SymMultiset
	dig   trace.Digest
	// sleep is the carried sleep set of the DAG-level reduction
	// (decision 17): the set in force when this configuration was
	// emitted, seeding the next response's extension search. Zero
	// unless the reduction is live.
	sleep check.SleepSet
	// asn is the assignment trail (response trace index -> absolute
	// claimed chain length) along this configuration's lineage, for
	// witness assembly; nil when witnesses are off.
	asn *sasn
	// abt records abort histories discharged inline under temporal
	// Abort-Order along this lineage (witness assembly only).
	abt *sabt
}

type sasn struct {
	prev *sasn
	res  int
	k    int
}

type sabt struct {
	prev *sabt
	idx  int
	h    trace.History
}

// scompactMin is the inert prefix length a configuration must accumulate
// before compaction absorbs it.
const scompactMin = 32

// NewSession starts an incremental SLin(m,n) check of an initially empty
// trace. It validates the phase range like Check.
func NewSession(ctx context.Context, f adt.Folder, rinit RInit, m, n int, opts ...check.Option) (*Session, error) {
	return newSessionSettings(ctx, f, rinit, m, n, check.NewSettings(opts...))
}

// NewSessionFast is NewSession with fast-path dispatch (DESIGN.md,
// decision 15): for m == 1 — where SLin(1,n) restricted to sig coincides
// with Lin (Theorem 2) — and a folder with a streaming specialized core
// (register, consensus), Feed costs O(1) amortized per action and spends
// no budget while the trace stays inside the core's fragment. The first
// action outside the fragment — including any switch action, which
// Theorem 2's sig restriction excludes — falls back transparently by
// replaying the fed trace through the exact frontiers. check.WithExact,
// m > 1, or a folder without a streaming core all yield a plain exact
// session. Verdicts agree with NewSession on every prefix either way.
func NewSessionFast(ctx context.Context, f adt.Folder, rinit RInit, m, n int, opts ...check.Option) (*Session, error) {
	set := check.NewSettings(opts...)
	s, err := newSessionSettings(ctx, f, rinit, m, n, set)
	if err != nil {
		return nil, err
	}
	if m == 1 && !set.Exact {
		s.fast = lin.NewFastChecker(f, set.Witness)
		s.fastPend = map[trace.ClientID]int{}
		s.record = true // fallback replays the fed trace
	}
	return s, nil
}

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

// recording reports whether a future Feed could still need to replay the
// fed trace: init rebuilds (m > 1), fast-path fallback, or a
// POR-disabling abort on an order-sensitive relation.
func (s *Session) recording() bool {
	return s.fast != nil || s.m != 1 || (s.por && !IsOrderInsensitive(s.rinit))
}

// refreshRecording drops the recorded trace once recording() turned
// false; recording is monotone (por never re-enables, fast never
// reattaches), so the release is permanent.
func (s *Session) refreshRecording() {
	if s.record && !s.recording() {
		s.record = false
		s.t = nil
	}
}

// Len returns the number of actions fed so far.
func (s *Session) Len() int { return s.fed }

// Nodes returns the cumulative number of search nodes spent, plus — for
// fast-path sessions — one node per action the specialized core
// processed (fast-path nodes are not charged against the budget).
func (s *Session) Nodes() int { return s.nodes + s.fastNodes }

// Pruned returns the cumulative number of extension branches the
// partial-order reduction skipped, including branches of frontiers later
// discarded by an unreduced replay (0 with check.WithPOR(false)).
func (s *Session) Pruned() int { return s.pruned }

// Feed appends action a to the trace under check. Errors (budget or memo
// exhaustion, cancellation, actions outside sig(m,n), switch values
// without interpretations) are terminal; (m,n)-ill-formed traces yield a
// NotLinearizable verdict instead, matching Check.
func (s *Session) Feed(a trace.Action) error {
	if s.err != nil {
		return s.err
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return err
	}
	if !trace.InSig(a, s.m, s.n) {
		s.err = fmt.Errorf("slin: action %v outside sig(%d,%d)", a, s.m, s.n)
		return s.err
	}
	idx, open, start := s.fed, s.open, s.nodes
	if s.set.FeedBudget {
		s.feedBase = start
	}
	var err error
	if s.fast != nil {
		err = s.feedFast(a)
	} else {
		err = s.feedExact(a)
	}
	return s.stick(err, "feed", idx, max(open, s.open), start)
}

// stick makes a non-nil err the session's terminal error. Budget and
// memo exhaustion say where the search gave up — in the feed (or the
// verdict after the feed) numbered idx — and how large it was there: the
// interpretation combinations, the configurations across their
// frontiers, the open operations and the nodes spent since start.
func (s *Session) stick(err error, at string, idx, open, start int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBudget) || errors.Is(err, ErrMemo) {
		combos, width := 1, 0
		for _, reps := range s.initReps {
			combos *= len(reps)
		}
		for _, cb := range s.combos {
			width += len(cb.frontier)
		}
		err = fmt.Errorf("%w (%s %d: %d combinations, %d configurations, %d open operations, %d nodes)",
			err, at, idx, combos, width, open, s.nodes-start)
	}
	s.err = err
	return err
}

// seedWhole prepares a fresh session for being fed exactly t, one-shot:
// the combinations are built once from every init action of t, so none
// of them triggers a rebuild, and the reducer is set from the whole
// trace — off when an abort is coming and r_init is order-sensitive — so
// it never prunes and then replays. Nothing is recorded.
func (s *Session) seedWhole(t trace.Trace) error {
	s.whole, s.record = true, false
	hasAbort := false
	for i, a := range t {
		hasAbort = hasAbort || a.IsAbort(s.n)
		if a.IsInit(s.m) && s.m != 1 {
			reps := s.rinit.Representatives(a.SwitchValue)
			if len(reps) == 0 {
				return fmt.Errorf("slin: switch value %q has no interpretations", a.SwitchValue)
			}
			s.initIdx = append(s.initIdx, i)
			s.initReps = append(s.initReps, reps)
		}
	}
	s.por = s.set.POR && (!hasAbort || IsOrderInsensitive(s.rinit))
	return s.rebuild()
}

// feedExact is Feed's frontier-engine path (every session without an
// active fast-path delegate).
func (s *Session) feedExact(a trace.Action) error {
	idx := s.fed
	s.fed++
	if s.record {
		s.t = append(s.t, a)
	}
	s.verAt = -1
	if s.notWF != "" {
		return nil // verdict already final
	}
	s.trackWF(a)
	if s.notWF != "" {
		return nil
	}
	if a.IsInit(s.m) && s.m != 1 && !s.whole {
		reps := s.rinit.Representatives(a.SwitchValue)
		if len(reps) == 0 {
			return fmt.Errorf("slin: switch value %q has no interpretations", a.SwitchValue)
		}
		s.initIdx = append(s.initIdx, idx)
		s.initReps = append(s.initReps, reps)
		return s.rebuild()
	}
	if a.IsAbort(s.n) && s.por && !IsOrderInsensitive(s.rinit) {
		// First abort fed: the reduction stops being sound from here on
		// (see the por field) — unless the relation declares its Admits
		// predicate order-insensitive, in which case the pruned orders
		// stay unobservable and the reduction survives the abort. If it
		// already pruned configurations, the surviving frontiers
		// under-approximate the unreduced ones, so replay the fed trace
		// — including this abort — unreduced.
		s.por = false
		if s.pruned > 0 {
			err := s.rebuild()
			s.refreshRecording()
			return err
		}
		s.refreshRecording()
	}
	for _, cb := range s.combos {
		if err := s.step(cb, a, idx); err != nil {
			return err
		}
	}
	return nil
}

// feedFast is Feed's fast-path delegate (m == 1): the same
// (1,n)-well-formedness bookkeeping as the exact path, with the
// specialized core deciding the verdict. Switch actions — outside
// Theorem 2's sig restriction — and fragment exits fall back by
// replaying the fed trace through fresh frontiers (the init-rebuild
// machinery), after which the session is exact. A rejected (or
// ill-formed) verdict is final, but subsequent actions still maintain
// the well-formedness state so reasons keep matching the exact session.
func (s *Session) feedFast(a trace.Action) error {
	if a.Kind == trace.Swi {
		s.fast, s.fastPend = nil, nil
		if s.notWF == "" {
			if err := s.rebuild(); err != nil {
				return err
			}
		}
		err := s.feedExact(a)
		s.refreshRecording()
		return err
	}
	idx := s.fed
	s.fed++
	s.t = append(s.t, a)
	s.verAt = -1
	if s.notWF != "" {
		return nil // verdict already final
	}
	s.trackWF(a)
	if s.notWF != "" {
		return nil
	}
	switch a.Kind {
	case trace.Inv:
		if !s.fastRej {
			switch s.fast.Inv(a.Input, idx) {
			case lin.FastExit:
				return s.fastFallback()
			case lin.FastReject:
				s.fastRej = true
			}
		}
		s.fastNodes++
		s.fastPend[a.Client] = idx
	case trace.Res:
		if !s.fastRej {
			switch s.fast.Res(a.Input, a.Output, s.fastPend[a.Client], idx) {
			case lin.FastExit:
				return s.fastFallback()
			case lin.FastReject:
				s.fastRej = true
			}
		}
		s.fastNodes++
	}
	return nil
}

// fastFallback abandons the fast-path delegate after a fragment exit:
// the fed trace (which already includes the triggering action) is
// replayed through fresh frontiers, spending budget from zero, after
// which the session behaves as an exact one fed the same actions.
func (s *Session) fastFallback() error {
	s.fast, s.fastPend = nil, nil
	err := s.rebuild()
	s.refreshRecording()
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

// trackWF advances the per-client (m,n)-well-formedness state machine
// over the actions of the client's (m,n)-sub-trace (interior switches are
// projected away, as in Definition 33).
func (s *Session) trackWF(a trace.Action) {
	if a.Kind == trace.Swi && !a.IsInit(s.m) && !a.IsAbort(s.n) {
		return // interior switch: not part of any client sub-trace
	}
	p := s.phase[a.Client]
	if p == nil {
		p = &phaseTrack{}
		s.phase[a.Client] = p
	}
	bad := func() { s.notWF = fmt.Sprintf("trace is not (%d,%d)-well-formed", s.m, s.n) }
	switch {
	case a.Kind == trace.Inv:
		switch p.state {
		case 0:
			if s.m != 1 {
				bad()
				return
			}
		case 2: // ready: next operation
		default:
			bad()
			return
		}
		p.state, p.pending = 1, a.Input
		s.open++
	case a.IsInit(s.m):
		if s.m == 1 || p.state != 0 {
			bad()
			return
		}
		p.state, p.pending = 1, a.Input
		s.open++
	case a.Kind == trace.Res:
		if p.state != 1 || a.Input != p.pending {
			bad()
			return
		}
		p.state = 2
		s.open--
	case a.IsAbort(s.n):
		if p.state != 1 || a.Input != p.pending {
			bad()
			return
		}
		p.state = 3
		s.open--
	}
}

// rebuild recomputes the init-interpretation combinations (the
// mixed-radix product over the representatives of every fed init action)
// and replays the fed trace through a fresh frontier per combination.
func (s *Session) rebuild() error {
	s.combos = nil
	combo := make([]int, len(s.initIdx))
	for {
		finit := map[int]trace.History{}
		for k, i := range s.initIdx {
			finit[i] = s.initReps[k][combo[k]]
		}
		cb := s.newCombo(finit)
		for idx, a := range s.t {
			if err := s.step(cb, a, idx); err != nil {
				return err
			}
		}
		s.combos = append(s.combos, cb)
		k := 0
		for ; k < len(combo); k++ {
			combo[k]++
			if combo[k] < len(s.initReps[k]) {
				break
			}
			combo[k] = 0
		}
		if k == len(combo) {
			break
		}
	}
	return nil
}

// newCombo builds the initial state of one combination: the L anchor, an
// empty valid-inputs multiset and the single L-anchored configuration.
func (s *Session) newCombo(finit map[int]trace.History) *combo {
	cb := &combo{
		finit:   finit,
		in:      trace.NewInterner(),
		ivi:     trace.Multiset{},
		invoked: trace.Multiset{},
	}
	if s.m != 1 {
		var hists []trace.History
		for _, h := range finit {
			hists = append(hists, h)
		}
		cb.L = trace.LCP(hists)
	}
	for _, h := range finit {
		for _, in := range h {
			cb.in.Sym(in)
		}
	}
	cb.refreshVi()
	root := &scfg{base: len(cb.L), end: s.f.Empty(), elems: trace.NewSymMultiset(cb.in.Len())}
	for _, in := range cb.L {
		sym := cb.in.Sym(in)
		root.dig = root.dig.Add(trace.HashElem(len(root.syms), sym, false))
		root.syms = append(root.syms, sym)
		root.outs = append(root.outs, s.f.Out(root.end, in))
		root.used = append(root.used, false)
		root.elems.Add(sym, 1)
		root.end = s.f.Step(root.end, in)
	}
	cb.frontier = []*scfg{root}
	return cb
}

// refreshVi snapshots the combination's symbolized valid-inputs multiset.
func (cb *combo) refreshVi() {
	m := cb.ivi.Sum(cb.invoked)
	sm := trace.NewSymMultiset(cb.in.Len())
	for v, n := range m {
		sm.Add(cb.in.Sym(v), n)
	}
	cb.vi = &sm
}

// step advances one combination by action a at trace index idx.
// Invocations and init actions only grow vi, so they carry no search
// choice.
func (s *Session) step(cb *combo, a trace.Action, idx int) error {
	switch {
	case a.Kind == trace.Inv:
		cb.invoked.Add(a.Input, 1)
		cb.refreshVi()
		return s.spend(len(cb.frontier))
	case a.Kind == trace.Res:
		return s.stepRes(cb, a, idx)
	case a.IsInit(s.m) && s.m != 1:
		contrib := cb.finit[idx].Elems().Union(trace.NewMultiset(a.Input))
		cb.ivi = cb.ivi.Union(contrib)
		cb.refreshVi()
		return s.spend(len(cb.frontier))
	case a.IsAbort(s.n):
		ob := sobl{sym: cb.in.Sym(a.Input), value: a.SwitchValue, vi: cb.vi, idx: idx}
		if s.set.TemporalAbortOrder {
			// Temporal Abort-Order: the abort history covers only commits
			// made so far, so dischargeability filters the frontier now.
			var keep []*scfg
			for _, c := range cb.frontier {
				if err := s.spend(1); err != nil {
					return err
				}
				h, ok, err := s.discharge(cb, c, ob)
				if err != nil {
					return err
				}
				if ok {
					if s.set.Witness {
						c.abt = &sabt{prev: c.abt, idx: ob.idx, h: h.Clone()}
					}
					keep = append(keep, c)
				}
			}
			cb.frontier = keep
			return nil
		}
		cb.obligations = append(cb.obligations, ob)
		return s.spend(len(cb.frontier))
	default:
		// Interior switches carry no search choice.
		return s.spend(len(cb.frontier))
	}
}

// stepRes replaces the combination's frontier by its successor set under
// response a: claims of unused prefix lengths beyond the L anchor plus
// Validity-respecting chain extensions closing with the response's input,
// pruned by compatibility with the abort obligations seen so far. Each
// successor's inert prefix is then absorbed into a shared summary.
func (s *Session) stepRes(cb *combo, a trace.Action, resIdx int) error {
	asym := cb.in.Sym(a.Input)
	s.audit.reset()
	expandOne := func(c *scfg, emit func(*scfg)) error {
		// Option 1: claim an existing unused prefix length beyond base
		// (compacted positions are claimed or below base, so scanning the
		// retained suffix is exhaustive).
		start := c.base - c.pre.Len()
		if start < 0 {
			start = 0
		}
		for k := start; k < len(c.syms); k++ {
			if !c.used[k] && c.syms[k] == asym && c.outs[k] == a.Output {
				emit(s.claimS(c, k, resIdx))
			}
		}
		// Option 2: extend the chain. The whole extended history must
		// satisfy Validity at this index: elems ⊆ vi.
		if !c.elems.SubsetOf(cb.vi) {
			return nil
		}
		s.availBuf.CopyFrom(cb.vi)
		avail := &s.availBuf
		avail.SubtractAll(&c.elems)
		if avail.Size() == 0 {
			return nil
		}
		// The carried set seeds the search; extendS consults it only while
		// the reduction is live.
		return s.extendS(cb, c, a, asym, resIdx, avail, nil, nil, c.end, c.dig, c.sleep, emit)
	}
	// Two expansion paths reached the same configuration digest with
	// possibly different carried sleep sets: only symbols slept on both
	// stay asleep (union would prune orders one path still owes).
	merge := func(kept, dup *scfg) *scfg {
		if memocheckEnabled {
			s.audit.note(kept.dig, cb, kept)
			s.audit.note(dup.dig, cb, dup)
		}
		kept.sleep = kept.sleep.Intersect(dup.sleep)
		return kept
	}
	next, err := check.ExpandFrontier(cb.frontier, s.spend,
		func(c *scfg) trace.Digest { return c.dig }, merge, expandOne)
	if err != nil {
		return err
	}
	if s.set.MemoLimit > 0 && len(next) > s.set.MemoLimit {
		return ErrMemo
	}
	s.compactS(cb, next)
	cb.frontier = next
	return nil
}

// claimS returns c with suffix position k (absolute position pre.N + k)
// marked claimed by resIdx. A claim only flips a mark — it commutes with
// every extension append — so the carried sleep set passes through.
func (s *Session) claimS(c *scfg, k, resIdx int) *scfg {
	pos := c.pre.Len() + k
	used := append([]bool(nil), c.used...)
	used[k] = true
	n := &scfg{
		pre:   c.pre,
		syms:  c.syms,
		outs:  c.outs,
		used:  used,
		nused: c.nused + 1,
		base:  c.base,
		end:   c.end,
		elems: c.elems,
		dig:   c.dig.Sub(trace.HashElem(pos, c.syms[k], false)).Add(trace.HashElem(pos, c.syms[k], true)),
		sleep: c.sleep,
		abt:   c.abt,
	}
	if s.set.Witness {
		n.asn = &sasn{prev: c.asn, res: resIdx, k: pos + 1}
	}
	return n
}

// extendS explores chain extensions of c drawn from avail, emitting a
// successor whenever the extension closes with the response's input and
// the extended chain remains compatible with every abort obligation seen
// so far (eager Abort-Order pruning: a commit no abort history can cover
// never enters the frontier).
//
// sleep carries the sleep set of the partial-order reduction, seeded by
// the configuration's carried set under the DAG-level carry (decision
// 17); s.por guarantees no order-sensitive abort has been fed — or, in
// Check, is coming — whenever pruning fires (an online session disables
// the reduction at the first such abort, rebuilding if needed).
func (s *Session) extendS(cb *combo, c *scfg, a trace.Action, asym trace.Sym, resIdx int,
	avail *trace.SymMultiset, ext []trace.Sym, extOuts []trace.Value, st adt.State, dig trace.Digest,
	sleep check.SleepSet, emit func(*scfg)) error {

	if err := s.spend(1); err != nil {
		return err
	}
	// Close the extension with the response's own input.
	if avail.Count(asym) > 0 && s.f.Out(st, a.Input) == a.Output {
		n := len(c.syms) + len(ext) + 1
		abs := c.pre.Len() + n
		elems := c.elems.Clone()
		for _, sym := range ext {
			elems.Add(sym, 1)
		}
		elems.Add(asym, 1)
		if s.commitCompatible(cb, &elems) {
			stIn := s.f.Step(st, a.Input)
			var carry check.SleepSet
			if s.por {
				carry = sleep.FilterIndependent(s.f, cb.in, st, a.Input, stIn, a.Output)
			}
			syms := make([]trace.Sym, 0, n)
			syms = append(append(append(syms, c.syms...), ext...), asym)
			outs := make([]trace.Value, 0, n)
			outs = append(append(append(outs, c.outs...), extOuts...), a.Output)
			used := make([]bool, n)
			copy(used, c.used)
			used[n-1] = true
			nc := &scfg{
				pre:   c.pre,
				syms:  syms,
				outs:  outs,
				used:  used,
				nused: c.nused + 1,
				base:  c.base,
				end:   stIn,
				elems: elems,
				dig:   dig.Add(trace.HashElem(abs-1, asym, true)),
				sleep: carry,
				abt:   c.abt,
			}
			if s.set.Witness {
				nc.asn = &sasn{prev: c.asn, res: resIdx, k: abs}
			}
			emit(nc)
		}
	}
	// Append any available input as an intermediate element.
	for sym := trace.Sym(0); int(sym) < avail.NumSyms(); sym++ {
		if avail.Count(sym) <= 0 {
			continue
		}
		if s.por && sleep.Has(sym) {
			s.pruned++
			continue
		}
		in := cb.in.Value(sym)
		stIn, outIn := s.f.Step(st, in), s.f.Out(st, in)
		var childSleep check.SleepSet
		if s.por {
			childSleep = sleep.FilterIndependent(s.f, cb.in, st, in, stIn, outIn)
		}
		avail.Add(sym, -1)
		pos := c.pre.Len() + len(c.syms) + len(ext)
		err := s.extendS(cb, c, a, asym, resIdx, avail, append(ext, sym), append(extOuts, outIn),
			stIn, dig.Add(trace.HashElem(pos, sym, false)), childSleep, emit)
		avail.Add(sym, 1)
		if err != nil {
			return err
		}
		if s.por {
			sleep = sleep.Add(sym)
		}
	}
	return nil
}

// compactS absorbs each new configuration's inert chain prefix — the
// leading run of positions that are below the L anchor or already
// claimed, untouchable under every future transition — into a shared
// ChainPrefix summary once the run reaches scompactMin. Compaction
// changes only the representation: the digest (the memo identity)
// already sums the dropped components at their final flags, elems stays
// the full-chain multiset, and the summary's retained values let abort
// discharge and witness assembly rebuild full histories. The per-pass
// cache shares summaries between configurations compacting through an
// identical prefix (keyed by the prefix digest, the same collision
// trust as the memo maps).
func (s *Session) compactS(cb *combo, next []*scfg) {
	var cache map[trace.Digest]*trace.ChainPrefix
	for _, c := range next {
		preN := c.pre.Len()
		run := 0
		for run < len(c.syms) && (preN+run < c.base || c.used[run]) {
			run++
		}
		if run < scompactMin {
			continue
		}
		if cache == nil {
			cache = map[trace.Digest]*trace.ChainPrefix{}
		}
		s.compactCfgS(cb, c, run, cache)
	}
}

// compactCfgS drops c's first run suffix entries into a summary
// cumulative with any prior one. The retained suffix is copied into
// right-sized arrays so the dropped storage is actually released —
// re-slicing would pin the old backing arrays.
func (s *Session) compactCfgS(cb *combo, c *scfg, run int, cache map[trace.Digest]*trace.ChainPrefix) {
	preN := c.pre.Len()
	var pd trace.Digest
	if c.pre != nil {
		pd = c.pre.Dig
	}
	for i := 0; i < run; i++ {
		pd = pd.Add(trace.HashElem(preN+i, c.syms[i], c.used[i]))
	}
	pre, ok := cache[pd]
	if !ok {
		var elems trace.SymMultiset
		vals := make([]trace.Value, 0, preN+run)
		if c.pre != nil {
			elems = c.pre.Elems.Clone()
			vals = append(vals, c.pre.Vals...)
		}
		for i := 0; i < run; i++ {
			elems.Add(c.syms[i], 1)
			vals = append(vals, cb.in.Value(c.syms[i]))
		}
		pre = &trace.ChainPrefix{N: preN + run, Elems: elems, Dig: pd, Vals: vals}
		cache[pd] = pre
	}
	c.pre = pre
	c.syms = append([]trace.Sym(nil), c.syms[run:]...)
	c.outs = append([]trace.Value(nil), c.outs[run:]...)
	c.used = append([]bool(nil), c.used[run:]...)
}

// commitCompatible reports whether a chain with the given element
// multiset can still be covered by every pending abort obligation
// (elems ⊆ vi at each obligation's index); no-op under temporal
// Abort-Order, whose obligations were discharged inline.
func (s *Session) commitCompatible(cb *combo, elems *trace.SymMultiset) bool {
	for _, ob := range cb.obligations {
		if !elems.SubsetOf(ob.vi) {
			return false
		}
	}
	return true
}

// discharge decides whether configuration c admits an abort history for
// obligation ob: a strict-when-required extension of c's chain by inputs
// valid at the obligation's index that r_init admits for the switch
// value; the abort's own input must be valid there too (Definition 28).
// On success it returns the admitted history (the full chain — compacted
// prefix values included — plus the found extension).
func (s *Session) discharge(cb *combo, c *scfg, ob sobl) (trace.History, bool, error) {
	vi := ob.vi
	if vi.Count(ob.sym) < 1 {
		return nil, false, nil
	}
	if !c.elems.SubsetOf(vi) {
		return nil, false, nil
	}
	budget := vi.Clone()
	budget.SubtractAll(&c.elems)
	preN := c.pre.Len()
	hist := make(trace.History, preN+len(c.syms))
	if preN > 0 {
		copy(hist, c.pre.Vals)
	}
	for i, sym := range c.syms {
		hist[preN+i] = cb.in.Value(sym)
	}
	// Each path appends a different sequence, so the search is a tree: no
	// history is reached twice.
	var rec func(h trace.History, needStrict bool) (trace.History, bool, error)
	rec = func(h trace.History, needStrict bool) (trace.History, bool, error) {
		if err := s.spend(1); err != nil {
			return nil, false, err
		}
		if !needStrict && s.rinit.Admits(ob.value, h) {
			return h, true, nil
		}
		for sym := trace.Sym(0); int(sym) < budget.NumSyms(); sym++ {
			if budget.Count(sym) <= 0 {
				continue
			}
			budget.Add(sym, -1)
			fh, ok, err := rec(h.Append(cb.in.Value(sym)), false)
			budget.Add(sym, 1)
			if err != nil || ok {
				return fh, ok, err
			}
		}
		return nil, false, nil
	}
	return rec(hist, s.m != 1 && c.nused == 0)
}

// Verdict reports the current three-valued verdict for the trace fed so
// far (Unknown after a terminal error). Under the literal Abort-Order it
// discharges the pending abort obligations, so it can consume budget;
// results are cached per fed length.
func (s *Session) Verdict() check.Verdict {
	r, err := s.evaluate()
	switch {
	case err != nil:
		return check.Unknown
	case r.OK:
		return check.Linearizable
	default:
		return check.NotLinearizable
	}
}

// Result returns the verdict for the trace fed so far in Check's Result
// form, or the session's terminal error. Positive verdicts carry one
// Witness per init-interpretation combination — assembled from the
// assignment trail of a surviving configuration — unless
// check.WithWitness(false).
func (s *Session) Result() (Result, error) {
	return s.evaluate()
}

func (s *Session) evaluate() (Result, error) {
	if s.err != nil {
		return Result{Nodes: s.Nodes(), Pruned: s.Pruned()}, s.err
	}
	if s.verAt == s.fed {
		return s.verRes, nil
	}
	start := s.nodes
	res, err := s.evaluateNow()
	if err != nil {
		return Result{Nodes: s.Nodes(), Pruned: s.Pruned()}, s.stick(err, "verdict after feed", s.fed-1, s.open, start)
	}
	s.verAt = s.fed
	s.verRes = res
	return res, nil
}

func (s *Session) evaluateNow() (Result, error) {
	if s.notWF != "" {
		return Result{OK: false, Reason: s.notWF, Nodes: s.Nodes(), Pruned: s.Pruned()}, nil
	}
	if s.fast != nil {
		// Fast-path delegate active: no switch action has been fed, so
		// there is a single combination with the empty init
		// interpretation, and the core's verdict is the combination's.
		if s.fastRej {
			return Result{
				OK:         false,
				Reason:     "no speculative linearization function for some init interpretation",
				FailedInit: map[int]trace.History{},
				Nodes:      s.Nodes(),
				Pruned:     s.Pruned(),
			}, nil
		}
		res := Result{OK: true, Nodes: s.Nodes(), Pruned: s.Pruned()}
		if s.set.Witness {
			w := Witness{
				Init:    map[int]trace.History{},
				Commits: map[int]trace.History{},
				Aborts:  map[int]trace.History{},
			}
			for i, h := range s.fast.Witness() {
				w.Commits[i] = h
			}
			res.Witnesses = []Witness{w}
		}
		return res, nil
	}
	var witnesses []Witness
	for _, cb := range s.combos {
		c, aborts, err := s.comboOK(cb)
		if err != nil {
			return Result{}, err
		}
		if c == nil {
			finit := map[int]trace.History{}
			for i, h := range cb.finit {
				finit[i] = h.Clone()
			}
			return Result{
				OK:         false,
				Reason:     "no speculative linearization function for some init interpretation",
				FailedInit: finit,
				Nodes:      s.Nodes(),
				Pruned:     s.Pruned(),
			}, nil
		}
		if s.set.Witness {
			witnesses = append(witnesses, s.switness(cb, c, aborts))
		}
	}
	return Result{OK: true, Witnesses: witnesses, Nodes: s.Nodes(), Pruned: s.Pruned()}, nil
}

// comboOK returns the first surviving configuration of the combination
// that also discharges every pending abort obligation, together with the
// discharged abort histories by trace index (nil configuration when none
// survives).
func (s *Session) comboOK(cb *combo) (*scfg, map[int]trace.History, error) {
	for _, c := range cb.frontier {
		var aborts map[int]trace.History
		all := true
		for _, ob := range cb.obligations {
			h, ok, err := s.discharge(cb, c, ob)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				all = false
				break
			}
			if aborts == nil {
				aborts = map[int]trace.History{}
			}
			aborts[ob.idx] = h
		}
		if all {
			return c, aborts, nil
		}
	}
	return nil, nil, nil
}

// switness assembles the witness of one combination from a surviving
// configuration: its full chain (compacted prefix values plus retained
// suffix) is the longest commit history, the assignment trail maps each
// response index to its absolute claimed length — compaction never
// shifts it — and the abort histories come from verdict-time discharge
// (literal semantics) or the inline-discharge trail (temporal).
func (s *Session) switness(cb *combo, c *scfg, aborts map[int]trace.History) Witness {
	preN := c.pre.Len()
	hist := make(trace.History, preN+len(c.syms))
	if preN > 0 {
		copy(hist, c.pre.Vals)
	}
	for i, sym := range c.syms {
		hist[preN+i] = cb.in.Value(sym)
	}
	w := Witness{
		Init:    map[int]trace.History{},
		Commits: map[int]trace.History{},
		Aborts:  map[int]trace.History{},
	}
	for i, h := range cb.finit {
		w.Init[i] = h.Clone()
	}
	for n := c.asn; n != nil; n = n.prev {
		w.Commits[n.res] = hist[:n.k].Clone()
	}
	for i, h := range aborts {
		w.Aborts[i] = h.Clone()
	}
	for n := c.abt; n != nil; n = n.prev {
		if _, ok := w.Aborts[n.idx]; !ok {
			w.Aborts[n.idx] = n.h.Clone()
		}
	}
	return w
}

func newSessionSettings(ctx context.Context, f adt.Folder, rinit RInit, m, n int, set check.Settings) (*Session, error) {
	if m >= n || m < 1 {
		return nil, fmt.Errorf("slin: invalid phase range (%d,%d)", m, n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{
		ctx:    ctx,
		f:      f,
		rinit:  rinit,
		m:      m,
		n:      n,
		set:    set,
		budget: set.BudgetOr(DefaultBudget),
		por:    set.POR,
		phase:  map[trace.ClientID]*phaseTrack{},
		verAt:  -1,
	}
	s.record = s.recording()
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}
