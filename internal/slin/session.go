package slin

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// Session is the SLin(m,n) engine (checker API v2, DESIGN.md decisions
// 11, 25 and 31): actions are fed one at a time, and the growing trace's
// verdict is recomputed from the persistent search state instead of from
// scratch. One-shot Check is this session fed the whole trace.
//
// The search runs once per init-interpretation combination (the ∀ of
// Definition 19), each on its own lin.Frontier — lin.Session's engine —
// seeded with the combination's Init-Order anchor L: one configuration
// whose chain is L, none of whose positions is claimable. A chain models
// the commit histories (Init-Order makes each a strict extension of L,
// Commit-Order orders them by strict prefix), and the engine's pool is
// the combination's valid inputs minus L and minus the inputs of the
// responses fed, so its extensions respect Validity by construction.
// Configurations are keyed by lin's identity (decision 29); only an abort
// obligation of an order-sensitive relation (OrderInsensitive) reads
// chain order, and from the first such abort on the engines run the
// ordered identity instead.
//
// What SLin adds is the session's. Init actions change global anchors: a
// new init interpretation multiplies the combinations and can shrink
// every L, so feeding one rebuilds the combinations and replays the fed
// trace (Check knows every init action up front and never replays), and
// a NotLinearizable verdict is not final before the trace's init actions
// have all been fed. Abort obligations are discharged at verdict time
// against the surviving configurations under the literal Abort-Order —
// an abort history must extend every commit history, later ones
// included, so the engines' close filter drops a commit no abort history
// can cover — or inline at the abort under WithTemporalAbortOrder. The
// fed trace is recorded only while a replay can still need it.
//
// The budget bounds what each Feed spends across all combinations,
// replays included, and what each verdict's discharge spends (decision
// 34). A budget error wraps ErrBudget with where the search gave up: the
// feed index, the interpretation combinations, the configurations across
// their frontiers, the open operations and the nodes spent in that feed
// (or verdict). On positive verdicts Result assembles one Witness per
// combination from a surviving configuration unless
// check.WithWitness(false).
type Session struct {
	f     adt.Folder
	rinit RInit
	m, n  int
	set   check.Settings
	meter lin.Meter
	// ordered selects the ordered identity. It turns on for good at the
	// first abort fed of an order-sensitive relation, with a replay of the
	// fed trace, so every verdict equals the one-shot Check of the fed
	// prefix (whose session sets it from the whole trace).
	ordered bool

	// t records the fed trace for replays (init rebuilds, fast-path
	// fallback, the switch to the ordered identity); record is dropped —
	// and t released — once no replay can ever be needed (m == 1, no
	// fast delegate, ordered or order-insensitive), bounding streaming
	// memory. fed counts fed actions independently of t.
	t      trace.Trace
	record bool
	fed    int
	// whole is the complete trace of the one-shot Check this session runs
	// (checkWhole), nil for a session a caller can feed further: every
	// init interpretation is known up front, and each combination
	// installs the response lookahead.
	whole trace.Trace

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

	// fast, when non-nil, is the lin.NewSessionFast session the session
	// delegates to until the first switch action (NewSessionFast): sound
	// for m == 1, where SLin(1,n) restricted to sig coincides with Lin
	// (Theorem 2). A switch action rebuilds the combinations from the
	// recorded trace, exactly like an init rebuild.
	fast *lin.Session
}

// phaseTrack is the incremental per-client state machine of Definition 34
// ((m,n)-well-formed client sub-traces), mirroring trace.PhaseWellFormed.
type phaseTrack struct {
	state   int // 0 idle, 1 pending, 2 ready, 3 done
	pending trace.Value
}

// combo is the session state of one init-interpretation combination.
type combo struct {
	finit map[int]trace.History
	L     trace.History
	in    *trace.Interner
	eng   *lin.Frontier
	// ivi is the valid-inputs contribution of the init actions fed.
	ivi trace.Multiset
	// res counts the responses fed: the claims every configuration holds.
	res         int
	obligations []abortOb
}

// abortOb is a literal-Abort-Order abort to discharge: the pending
// input's interned symbol, the switch value to interpret and the abort's
// trace index (keying the witness's abort history). rem is the engine's
// pool at the abort minus the inputs of the responses fed since: the
// valid inputs at the abort's index that a chain has not used. dead
// marks a response since whose input rem lacked — no chain fits then.
type abortOb struct {
	sym   trace.Sym
	value trace.Value
	rem   []trace.SymCount
	dead  bool
	idx   int
}

// NewSession starts an incremental SLin(m,n) check of an initially empty
// trace. It validates the phase range like Check.
func NewSession(ctx context.Context, f adt.Folder, rinit RInit, m, n int, opts ...check.Option) (*Session, error) {
	return newSessionSettings(ctx, f, rinit, m, n, check.NewSettings(opts...))
}

// NewSessionFast is NewSession with fast-path dispatch (DESIGN.md,
// decision 15): for m == 1 — where SLin(1,n) restricted to sig coincides
// with Lin (Theorem 2) — actions go to a lin.NewSessionFast session, so
// Feed costs O(1) amortized per action and spends no budget while the
// trace stays inside a streaming core's fragment. The first switch
// action, which Theorem 2's sig restriction excludes, falls back by
// replaying the fed trace through the exact frontiers. check.WithExact,
// m > 1, or a folder without a streaming core all yield a plain exact
// session. Verdicts agree with NewSession on every prefix either way.
func NewSessionFast(ctx context.Context, f adt.Folder, rinit RInit, m, n int, opts ...check.Option) (*Session, error) {
	set := check.NewSettings(opts...)
	s, err := newSessionSettings(ctx, f, rinit, m, n, set)
	if err != nil {
		return nil, err
	}
	if m == 1 && !set.Exact && lin.NewFastChecker(f, false) != nil {
		s.fast = lin.NewSessionFast(s.meter.Ctx, f, opts...)
		s.record = true // fallback replays the fed trace
	}
	return s, nil
}

func newSessionSettings(ctx context.Context, f adt.Folder, rinit RInit, m, n int, set check.Settings) (*Session, error) {
	if m >= n || m < 1 {
		return nil, fmt.Errorf("slin: invalid phase range (%d,%d)", m, n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{
		f:     f,
		rinit: rinit,
		m:     m,
		n:     n,
		set:   set,
		meter: lin.Meter{Ctx: ctx, Budget: set.Budget, BudgetErr: ErrBudget},
		phase: map[trace.ClientID]*phaseTrack{},
		verAt: -1,
	}
	s.record = s.recording()
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// recording reports whether a future Feed could still need to replay the
// fed trace: init rebuilds (m > 1), fast-path fallback, or the switch to
// the ordered identity at an abort of an order-sensitive relation.
func (s *Session) recording() bool {
	return s.fast != nil || s.m != 1 || (!s.ordered && !IsOrderInsensitive(s.rinit))
}

// refreshRecording drops the recorded trace once recording() turned
// false; recording is monotone (ordered never turns off, fast never
// reattaches), so the release is permanent.
func (s *Session) refreshRecording() {
	if s.record && !s.recording() {
		s.record = false
		s.t = nil
	}
}

// Len returns the number of actions fed so far.
func (s *Session) Len() int { return s.fed }

// Nodes returns the cumulative number of search nodes spent — while the
// fast-path delegate is active, its Nodes (one per action its core took).
func (s *Session) Nodes() int {
	if s.fast != nil {
		return s.fast.Nodes()
	}
	return s.meter.Nodes
}

// Feed appends action a to the trace under check. Errors (budget or memo
// exhaustion, cancellation, actions outside sig(m,n), switch values
// without interpretations) are terminal; (m,n)-ill-formed traces yield a
// NotLinearizable verdict instead, matching Check.
func (s *Session) Feed(a trace.Action) error {
	if s.err != nil {
		return s.err
	}
	if err := s.meter.Ctx.Err(); err != nil {
		s.err = err
		return err
	}
	if !trace.InSig(a, s.m, s.n) {
		s.err = fmt.Errorf("slin: action %v outside sig(%d,%d)", a, s.m, s.n)
		return s.err
	}
	idx, open, start := s.fed, s.open, s.meter.StartFeed()
	var err error
	if s.fast != nil && a.Kind == trace.Swi {
		// A switch action leaves Theorem 2's sig: replay the fed trace
		// through the combinations, exactly like an init rebuild.
		s.fast = nil
		if s.notWF == "" {
			err = s.rebuild()
		}
	}
	if err == nil {
		err = s.feedExact(a)
	}
	s.refreshRecording()
	return s.stick(err, "feed", idx, max(open, s.open), start)
}

// Width returns the configurations across the combinations' frontiers.
func (s *Session) Width() int {
	width := 0
	for _, cb := range s.combos {
		width += cb.eng.Width()
	}
	return width
}

// stick makes a non-nil err the session's terminal error. Budget
// exhaustion says where the search gave up — in the feed (or the verdict
// after the feed) numbered idx — and how large it was there: the
// interpretation combinations, the configurations across their
// frontiers, the open operations and the nodes spent since start.
func (s *Session) stick(err error, at string, idx, open, start int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBudget) {
		combos := 1
		for _, reps := range s.initReps {
			combos *= len(reps)
		}
		err = fmt.Errorf("%w (%s %d: %d combinations, %d configurations, %d open operations, %d nodes)",
			err, at, idx, combos, s.Width(), open, s.meter.Nodes-start)
	}
	s.err = err
	return err
}

// checkWhole is one-shot Check on a fresh session fed exactly t. The
// combinations are built once from every init action of t, so none of
// them triggers a rebuild; the identity is set from the whole trace —
// ordered when an abort is coming and r_init is order-sensitive — so it
// never switches and replays; and every combination installs the
// response lookahead. Nothing is recorded.
func (s *Session) checkWhole(t trace.Trace) (Result, error) {
	if !t.PhaseWellFormed(s.m, s.n) {
		return Result{OK: false, Reason: fmt.Sprintf("trace is not (%d,%d)-well-formed", s.m, s.n)}, nil
	}
	s.whole, s.record = t, false
	hasAbort := false
	for i, a := range t {
		hasAbort = hasAbort || a.IsAbort(s.n)
		if a.IsInit(s.m) && s.m != 1 {
			reps := s.rinit.Representatives(a.SwitchValue)
			if len(reps) == 0 {
				return Result{}, fmt.Errorf("slin: switch value %q has no interpretations", a.SwitchValue)
			}
			s.initIdx = append(s.initIdx, i)
			s.initReps = append(s.initReps, reps)
		}
	}
	s.ordered = s.ordered || (hasAbort && !IsOrderInsensitive(s.rinit))
	if err := s.rebuild(); err != nil {
		return Result{}, err
	}
	if err := s.FeedAll(t); err != nil {
		return Result{Nodes: s.Nodes()}, err
	}
	return s.Result()
}

// feedExact is Feed's path once the action is in sig(m,n): the
// (m,n)-well-formedness bookkeeping, then the fast-path delegate while
// there is one, else every combination's step.
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
	if s.fast != nil {
		err := s.fast.Feed(a)
		if errors.Is(err, lin.ErrBudget) {
			err = fmt.Errorf("%w: %w", ErrBudget, err)
		}
		return err
	}
	if a.IsInit(s.m) && s.m != 1 && s.whole == nil {
		reps := s.rinit.Representatives(a.SwitchValue)
		if len(reps) == 0 {
			return fmt.Errorf("slin: switch value %q has no interpretations", a.SwitchValue)
		}
		s.initIdx = append(s.initIdx, idx)
		s.initReps = append(s.initReps, reps)
		return s.rebuild()
	}
	if a.IsAbort(s.n) && !s.ordered && !IsOrderInsensitive(s.rinit) {
		// The first order-sensitive abort reads chain order: replay the
		// fed trace, this abort included, under the ordered identity.
		s.ordered = true
		return s.rebuild()
	}
	for _, cb := range s.combos {
		if err := s.step(cb, a, idx); err != nil {
			return err
		}
	}
	return nil
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

// newCombo builds the initial state of one combination: the L anchor
// (the LCP of its init histories) and a frontier seeded at it, with an
// empty pool, under the session's identity — and, one-shot, the
// lookahead.
func (s *Session) newCombo(finit map[int]trace.History) *combo {
	cb := &combo{finit: finit, in: trace.NewInterner(), ivi: trace.Multiset{}}
	var hists []trace.History
	for _, i := range s.initIdx {
		hists = append(hists, finit[i])
		for _, v := range finit[i] {
			cb.in.Sym(v)
		}
	}
	if s.m != 1 {
		cb.L = trace.LCP(hists)
	}
	cb.eng = lin.NewFrontier(s.f, cb.in, &s.meter, cb.L, s.set.Witness)
	cb.eng.Ordered = s.ordered
	if s.whole != nil {
		cb.eng.Lookahead(s.whole, s.never(cb))
	}
	return cb
}

// never is the lookahead's bound for one combination of a one-shot
// check: its pool at the end of the whole trace — the inputs invoked or
// contributed by init actions, minus L, minus the inputs of the
// responses. Every configuration's entries lie in the pool, and an entry
// leaves only when a response with its symbol and output claims it.
func (s *Session) never(cb *combo) map[trace.Sym]int {
	never := map[trace.Sym]int{}
	ivi := trace.Multiset{}
	for i, a := range s.whole {
		switch sym := cb.in.Sym(a.Input); { // feed order, as the lookahead interns
		case a.Kind == trace.Inv:
			never[sym]++
		case a.Kind == trace.Res:
			never[sym]--
		case a.IsInit(s.m) && s.m != 1:
			ivi = ivi.Union(cb.finit[i].Elems().Union(trace.NewMultiset(a.Input)))
		}
	}
	for v, k := range ivi {
		never[cb.in.Sym(v)] += k
	}
	for _, v := range cb.L {
		never[cb.in.Sym(v)]--
	}
	return never
}

// step advances one combination by action a at trace index idx.
// Invocations and init actions only grow the pool, so they carry no
// search choice.
func (s *Session) step(cb *combo, a trace.Action, idx int) error {
	pool := &cb.eng.Pool
	switch {
	case a.Kind == trace.Inv:
		pool.Add(cb.in.Sym(a.Input), 1)
		return s.meter.Spend(cb.eng.Width())
	case a.Kind == trace.Res:
		asym := cb.in.Sym(a.Input)
		for i := range cb.obligations {
			ob := &cb.obligations[i]
			ob.dead = ob.dead || !take(&ob.rem, asym)
		}
		if err := cb.eng.Expand(asym, a.Output, idx); err != nil {
			return err
		}
		if cb.eng.Width() > 0 {
			// Some successor claimed the input, so the pool held it.
			pool.Add(asym, -1)
		}
		cb.res++
		return nil
	case a.IsInit(s.m) && s.m != 1:
		cb.in.Sym(a.Input)
		grown := cb.ivi.Union(cb.finit[idx].Elems().Union(trace.NewMultiset(a.Input)))
		for v, k := range grown {
			pool.Add(cb.in.Sym(v), k-cb.ivi[v])
		}
		if len(cb.ivi) == 0 {
			// L is a prefix of every init history, so the first one fed
			// makes it valid; it is never linearized again.
			for _, v := range cb.L {
				pool.Add(cb.in.Sym(v), -1)
			}
		}
		cb.ivi = grown
		return s.meter.Spend(cb.eng.Width())
	case a.IsAbort(s.n):
		ob := abortOb{sym: cb.in.Sym(a.Input), value: a.SwitchValue, rem: pool.AppendDiff(nil, nil), idx: idx}
		if s.set.TemporalAbortOrder {
			// Temporal Abort-Order: the abort history covers only commits
			// made so far, so dischargeability filters the frontier now.
			return cb.eng.Retain(func(i int) (bool, error) {
				if err := s.meter.Spend(1); err != nil {
					return false, err
				}
				h, ok, err := s.discharge(cb, i, &ob)
				if ok {
					cb.eng.NoteAbort(i, idx, h)
				}
				return ok, err
			})
		}
		cb.obligations = append(cb.obligations, ob)
		if cb.eng.Close == nil {
			cb.eng.Close = cb.compatible
		}
		return s.meter.Spend(cb.eng.Width())
	default:
		// Interior switches carry no search choice.
		return s.meter.Spend(cb.eng.Width())
	}
}

// compatible is the engines' close filter under the literal Abort-Order:
// a commit whose chain — L, the claimed inputs and the unclaimed entries —
// some pending abort obligation cannot cover (it exceeds the valid
// inputs at the abort's index) never enters the frontier.
func (cb *combo) compatible(entries []trace.Sym) bool {
	for i := range cb.obligations {
		ob := &cb.obligations[i]
		if _, ok := minus(ob.rem, entries); ob.dead || !ok {
			return false
		}
	}
	return true
}

// discharge decides whether configuration i of the combination admits
// an abort history for obligation ob: a strict-when-required extension
// of its chain by inputs valid at the obligation's index that r_init
// admits for the switch value; the abort's own input must be valid there
// too (Definition 28). On success it returns the admitted history.
func (s *Session) discharge(cb *combo, i int, ob *abortOb) (trace.History, bool, error) {
	if ob.dead {
		return nil, false, nil
	}
	entries := cb.eng.Entries(i)
	budget, ok := minus(ob.rem, entries)
	if !ok {
		return nil, false, nil
	}
	// The valid inputs at the abort's index are the ones no chain has used
	// plus the chain's own elements.
	hist := cb.eng.History(i)
	if !slices.Contains(hist, cb.in.Value(ob.sym)) &&
		!slices.ContainsFunc(budget, func(e trace.SymCount) bool { return e.Sym == ob.sym && e.N > 0 }) {
		return nil, false, nil
	}
	// Each path appends a different sequence, so the search is a tree: no
	// history is reached twice.
	var rec func(h trace.History, needStrict bool) (trace.History, bool, error)
	rec = func(h trace.History, needStrict bool) (trace.History, bool, error) {
		if err := s.meter.Spend(1); err != nil {
			return nil, false, err
		}
		if !needStrict && s.rinit.Admits(ob.value, h) {
			return h, true, nil
		}
		for j := range budget {
			if budget[j].N <= 0 {
				continue
			}
			budget[j].N--
			fh, ok, err := rec(h.Append(cb.in.Value(budget[j].Sym)), false)
			budget[j].N++
			if err != nil || ok {
				return fh, ok, err
			}
		}
		return nil, false, nil
	}
	return rec(hist, s.m != 1 && cb.res == 0)
}

// take removes one occurrence of sym from the sorted multiset m,
// reporting whether m held one.
func take(m *[]trace.SymCount, sym trace.Sym) bool {
	i, ok := slices.BinarySearchFunc(*m, sym, func(e trace.SymCount, s trace.Sym) int { return int(e.Sym) - int(s) })
	if !ok {
		return false
	}
	if (*m)[i].N--; (*m)[i].N == 0 {
		*m = slices.Delete(*m, i, i+1)
	}
	return true
}

// minus returns the sorted multiset m without the sorted occurrences
// syms, or false when m does not hold them all.
func minus(m []trace.SymCount, syms []trace.Sym) ([]trace.SymCount, bool) {
	out := slices.Clone(m)
	j := 0
	for k := range out {
		if j < len(syms) && syms[j] < out[k].Sym {
			return nil, false // an occurrence m does not hold
		}
		for ; j < len(syms) && syms[j] == out[k].Sym; j++ {
			if out[k].N--; out[k].N < 0 {
				return nil, false
			}
		}
	}
	return out, j == len(syms)
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
// Witness per init-interpretation combination — assembled from the chain
// and trail of a surviving configuration — unless
// check.WithWitness(false).
func (s *Session) Result() (Result, error) {
	return s.evaluate()
}

func (s *Session) evaluate() (Result, error) {
	if s.err != nil {
		return Result{Nodes: s.Nodes()}, s.err
	}
	if s.verAt == s.fed {
		return s.verRes, nil
	}
	start := s.meter.StartFeed() // the discharge has an allowance of its own
	res, err := s.evaluateNow()
	if err != nil {
		return Result{Nodes: s.Nodes()}, s.stick(err, "verdict after feed", s.fed-1, s.open, start)
	}
	s.verAt = s.fed
	s.verRes = res
	return res, nil
}

const failReason = "no speculative linearization function for some init interpretation"

func (s *Session) evaluateNow() (Result, error) {
	if s.notWF != "" {
		return Result{OK: false, Reason: s.notWF, Nodes: s.Nodes()}, nil
	}
	if s.fast != nil {
		// No switch action has been fed, so there is a single combination
		// with the empty init interpretation, and the lin session's verdict
		// is the combination's.
		r, err := s.fast.Result()
		if err != nil || !r.OK {
			return Result{OK: false, Reason: failReason, FailedInit: map[int]trace.History{}, Nodes: s.Nodes()}, err
		}
		res := Result{OK: true, Nodes: s.Nodes()}
		if s.set.Witness {
			res.Witnesses = []Witness{{Init: map[int]trace.History{}, Commits: r.Witness, Aborts: map[int]trace.History{}}}
		}
		return res, nil
	}
	var witnesses []Witness
	for _, cb := range s.combos {
		i, aborts, err := s.comboOK(cb)
		if err != nil {
			return Result{}, err
		}
		if i < 0 {
			finit := map[int]trace.History{}
			for i, h := range cb.finit {
				finit[i] = h.Clone()
			}
			return Result{OK: false, Reason: failReason, FailedInit: finit, Nodes: s.Nodes()}, nil
		}
		if s.set.Witness {
			witnesses = append(witnesses, s.witness(cb, i, aborts))
		}
	}
	return Result{OK: true, Witnesses: witnesses, Nodes: s.Nodes()}, nil
}

// comboOK returns the first surviving configuration of the combination
// that also discharges every pending abort obligation, together with the
// discharged abort histories by trace index (-1 when none survives).
func (s *Session) comboOK(cb *combo) (int, map[int]trace.History, error) {
	for i := range cb.eng.Width() {
		var aborts map[int]trace.History
		all := true
		for k := range cb.obligations {
			h, ok, err := s.discharge(cb, i, &cb.obligations[k])
			if err != nil {
				return -1, nil, err
			}
			if !ok {
				all = false
				break
			}
			if aborts == nil {
				aborts = map[int]trace.History{}
			}
			aborts[cb.obligations[k].idx] = h
		}
		if all {
			return i, aborts, nil
		}
	}
	return -1, nil, nil
}

// witness assembles the witness of one combination from its surviving
// configuration i: the chain and trail give the commit histories and the
// abort histories discharged inline (temporal), and aborts those
// discharged at verdict time (literal).
func (s *Session) witness(cb *combo, i int, aborts map[int]trace.History) Witness {
	commits, inline := cb.eng.Trail(i)
	w := Witness{Init: map[int]trace.History{}, Commits: commits, Aborts: map[int]trace.History{}}
	for i, h := range cb.finit {
		w.Init[i] = h.Clone()
	}
	for i, h := range aborts {
		w.Aborts[i] = h.Clone()
	}
	for i, h := range inline {
		w.Aborts[i] = h
	}
	return w
}
