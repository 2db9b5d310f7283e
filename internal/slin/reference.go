package slin

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// CheckReference decides SLin_T(m,n) using the original string-keyed,
// chain-copying depth-first search. It is retained as a slow executable
// specification for the frontier engine behind Check and Session, with
// which it shares no code; the differential tests (diffcheck.SLin) run it
// beside the engine under a budget of its own. One budget is shared
// across all init-interpretation combinations, decremented once per
// recursive search step. Being a specification it takes no context,
// returns the bare ErrBudget, and ignores every option but the budget,
// witnesses and the Abort-Order reading.
func CheckReference(f adt.Folder, rinit RInit, m, n int, t trace.Trace, opts ...check.Option) (Result, error) {
	set := check.NewSettings(opts...)
	if m >= n || m < 1 {
		return Result{}, fmt.Errorf("slin: invalid phase range (%d,%d)", m, n)
	}
	for _, a := range t {
		if !trace.InSig(a, m, n) {
			return Result{}, fmt.Errorf("slin: action %v outside sig(%d,%d)", a, m, n)
		}
	}
	if !t.PhaseWellFormed(m, n) {
		return Result{OK: false, Reason: fmt.Sprintf("trace is not (%d,%d)-well-formed", m, n)}, nil
	}

	// Enumerate init interpretation combinations (the ∀ of Definition 19).
	var initIdx []int
	for i, a := range t {
		if a.IsInit(m) && m != 1 {
			initIdx = append(initIdx, i)
		}
	}
	choices := make([][]trace.History, len(initIdx))
	for k, i := range initIdx {
		reps := rinit.Representatives(t[i].SwitchValue)
		if len(reps) == 0 {
			return Result{}, fmt.Errorf("slin: switch value %q has no interpretations", t[i].SwitchValue)
		}
		choices[k] = reps
	}

	combo := make([]int, len(initIdx))
	var witnesses []Witness
	sp := &spender{budget: set.BudgetOr(DefaultBudget)}
	for {
		finit := map[int]trace.History{}
		for k, i := range initIdx {
			finit[i] = choices[k][combo[k]]
		}
		ok, w, err := refExistsWitness(f, rinit, m, n, t, finit, set, sp)
		if err != nil {
			return Result{Nodes: sp.nodes}, err
		}
		if !ok {
			return Result{
				OK:         false,
				Reason:     "no speculative linearization function for some init interpretation",
				FailedInit: finit,
				Nodes:      sp.nodes,
			}, nil
		}
		if set.Witness {
			witnesses = append(witnesses, w)
		}
		// Advance the mixed-radix counter over representative choices.
		k := 0
		for ; k < len(combo); k++ {
			combo[k]++
			if combo[k] < len(choices[k]) {
				break
			}
			combo[k] = 0
		}
		if k == len(combo) {
			break
		}
	}
	return Result{OK: true, Witnesses: witnesses, Nodes: sp.nodes}, nil
}

// spender is the reference's per-call search budget, shared by every
// interpretation combination and sub-search of one CheckReference call.
type spender struct {
	nodes  int
	budget int
}

func (sp *spender) spend() error {
	sp.nodes++
	if sp.nodes > sp.budget {
		return ErrBudget
	}
	return nil
}

// obligation is an abort action the reference must interpret: its trace
// index, the pending input and the switch value.
type obligation struct {
	idx   int
	input trace.Value
	value trace.Value
}

// refExistsWitness decides the existential part of Definition 19 for a
// fixed init interpretation: do an abort interpretation f_abort and a
// speculative linearization function g exist such that g explains t and
// Validity, Commit-Order, Init-Order and Abort-Order hold?
//
// The search models the commit histories as a single growing chain
// anchored at L, the longest common prefix of the init histories
// (Init-Order makes every commit history a strict extension of L, and
// Commit-Order totally orders commit histories by strict prefix). Each
// response either claims an unused prefix length of the chain or extends
// the chain, consuming available inputs. Abort interpretations are chosen
// at the end of the trace: an abort history must have every commit
// history as a prefix — including commits later in the trace than the
// abort — so the chain's final claimed maximum determines the candidates.
// Under the temporal Abort-Order they are chosen at the abort instead.
func refExistsWitness(f adt.Folder, rinit RInit, m, n int, t trace.Trace, finit map[int]trace.History, set check.Settings, sp *spender) (bool, Witness, error) {
	s := &refSearcher{
		f:         f,
		rinit:     rinit,
		m:         m,
		n:         n,
		t:         t,
		sp:        sp,
		temporal:  set.TemporalAbortOrder,
		failed:    map[string]bool{},
		commitLen: map[int]int{},
		abortHist: map[int]trace.History{},
	}

	// L: longest common prefix of all init histories (Definition 31). The
	// note after Definition 32: for m == 1 there are no init histories and
	// Init-Order does not constrain the trace.
	var initHists []trace.History
	for _, h := range finit {
		initHists = append(initHists, h)
	}
	s.initOrder = m != 1
	if s.initOrder {
		s.L = trace.LCP(initHists)
	}

	// Precompute the valid-inputs components per index (Definitions 25–26):
	// ivi[i] is the max-union of init contributions before i, invoked[i]
	// the multiset of inputs invoked before i.
	s.ivi = make([]trace.Multiset, len(t)+1)
	s.invoked = make([]trace.Multiset, len(t)+1)
	ivi, invoked := trace.Multiset{}, trace.Multiset{}
	s.ivi[0], s.invoked[0] = ivi, invoked
	for i, a := range t {
		switch {
		case a.Kind == trace.Inv:
			invoked = invoked.Clone()
			invoked.Add(a.Input, 1)
		case a.IsInit(m) && m != 1:
			contrib := finit[i].Elems().Union(trace.NewMultiset(a.Input))
			ivi = ivi.Union(contrib)
		}
		s.ivi[i+1], s.invoked[i+1] = ivi, invoked
	}

	// Abort obligations, in trace order.
	for i, a := range t {
		if a.IsAbort(n) {
			s.obligations = append(s.obligations, obligation{idx: i, input: a.Input, value: a.SwitchValue})
		}
	}

	ok, err := s.run(0, s.newChain())
	if err != nil || !ok {
		return ok, Witness{}, err
	}
	w := Witness{
		Init:    map[int]trace.History{},
		Commits: map[int]trace.History{},
		Aborts:  map[int]trace.History{},
	}
	for i, h := range finit {
		w.Init[i] = h.Clone()
	}
	for i, k := range s.commitLen {
		w.Commits[i] = s.finalChain.hist[:k].Clone()
	}
	for i, h := range s.abortHist {
		w.Aborts[i] = h.Clone()
	}
	return true, w, nil
}

type refSearcher struct {
	f           adt.Folder
	rinit       RInit
	m, n        int
	t           trace.Trace
	sp          *spender
	temporal    bool
	failed      map[string]bool
	initOrder   bool
	L           trace.History
	ivi         []trace.Multiset
	invoked     []trace.Multiset
	obligations []obligation

	// Witness assembly (filled on the successful search path).
	commitLen  map[int]int
	abortHist  map[int]trace.History
	finalChain refSChain
}

// vi returns vi(m, t, finit, i) (Definition 26).
func (s *refSearcher) vi(i int) trace.Multiset {
	return s.ivi[i].Sum(s.invoked[i])
}

// refSChain is the copying commit-history chain anchored at L: hist
// always has L as a prefix, and prefix lengths ≤ base are never
// claimable (commit histories must be strict extensions of L).
type refSChain struct {
	f      adt.Folder
	base   int
	hist   trace.History
	states []adt.State // states[k] folds hist[:k]; len == len(hist)+1
	outs   []trace.Value
	used   []bool
	nused  int
}

func (s *refSearcher) newChain() refSChain {
	c := refSChain{f: s.f, base: len(s.L)}
	c.states = make([]adt.State, 1, len(s.L)+1)
	c.states[0] = s.f.Empty()
	for _, in := range s.L {
		st := c.states[len(c.states)-1]
		c.hist = append(c.hist, in)
		c.outs = append(c.outs, s.f.Out(st, in))
		c.states = append(c.states, s.f.Step(st, in))
		c.used = append(c.used, false)
	}
	return c
}

func (c refSChain) state() adt.State { return c.states[len(c.states)-1] }

func (c refSChain) extend(in trace.Value) refSChain {
	st := c.state()
	n := refSChain{f: c.f, base: c.base, nused: c.nused}
	n.hist = c.hist.Append(in)
	n.states = append(append(make([]adt.State, 0, len(c.states)+1), c.states...), c.f.Step(st, in))
	n.outs = append(append(make([]trace.Value, 0, len(c.outs)+1), c.outs...), c.f.Out(st, in))
	n.used = append(append(make([]bool, 0, len(c.used)+1), c.used...), false)
	return n
}

func (c refSChain) markUsed(k int) refSChain {
	n := c
	n.used = append(make([]bool, 0, len(c.used)), c.used...)
	n.used[k-1] = true
	n.nused++
	return n
}

func (c refSChain) key() string {
	var b strings.Builder
	for i, v := range c.hist {
		b.WriteString(v)
		if c.used[i] {
			b.WriteByte('*')
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// run processes the trace from action index i.
func (s *refSearcher) run(i int, c refSChain) (bool, error) {
	if err := s.sp.spend(); err != nil {
		return false, err
	}
	if i == len(s.t) {
		if s.temporal {
			s.finalChain = c
			return true, nil // obligations were discharged inline
		}
		ok, err := s.dischargeObligations(c)
		if ok {
			s.finalChain = c
		}
		return ok, err
	}
	key := strconv.Itoa(i) + "|" + c.key()
	if s.failed[key] {
		return false, nil
	}
	a := s.t[i]
	var ok bool
	var err error
	switch {
	case a.Kind == trace.Res:
		ok, err = s.commit(i, c, a)
	case a.IsAbort(s.n) && s.temporal:
		// Temporal Abort-Order: the abort history must cover only commits
		// made so far, so its interpretation can be chosen immediately.
		ok, err = s.dischargeAt(obligation{idx: i, input: a.Input, value: a.SwitchValue}, c)
		if err == nil && ok {
			ok, err = s.run(i+1, c)
		}
	default:
		// Invocations and switch actions carry no search choice: their
		// effects (invoked inputs, ivi contributions, abort obligations)
		// are precomputed per index.
		ok, err = s.run(i+1, c)
	}
	if err != nil {
		return false, err
	}
	if !ok {
		s.failed[key] = true
	}
	return ok, nil
}

// commit handles a response action at index i.
func (s *refSearcher) commit(i int, c refSChain, a trace.Action) (bool, error) {
	// Claim an unused prefix length strictly beyond the L anchor. Elements
	// of the chain were validated against vi at the index that appended
	// them; vi is monotone, so Validity holds at i automatically.
	for k := c.base + 1; k <= len(c.hist); k++ {
		if c.used[k-1] || c.hist[k-1] != a.Input || c.outs[k-1] != a.Output {
			continue
		}
		ok, err := s.run(i+1, c.markUsed(k))
		if ok {
			s.commitLen[i] = k
		}
		if err != nil || ok {
			return ok, err
		}
	}
	// Extend the chain. The whole extended history must satisfy Validity
	// at i: elems(hist) ⊆ vi(i). The chain prefix may fail this when L
	// contains inputs whose init actions occur after i.
	vi := s.vi(i)
	if !c.hist.Elems().SubsetOf(vi) {
		return false, nil
	}
	avail := vi.Clone()
	for _, in := range c.hist {
		avail.Add(in, -1)
	}
	return s.extendAndCommit(i, c, avail, a, map[string]bool{})
}

// extendAndCommit explores chain extensions whose last element is the
// response's input. Intermediate appended elements create new unclaimed
// prefix lengths that later commits may claim.
func (s *refSearcher) extendAndCommit(i int, c refSChain, avail trace.Multiset, a trace.Action, visited map[string]bool) (bool, error) {
	if err := s.sp.spend(); err != nil {
		return false, err
	}
	vkey := c.key() + "|" + avail.Key()
	if visited[vkey] {
		return false, nil
	}
	visited[vkey] = true

	// Close the extension with the response's own input.
	if avail.Count(a.Input) > 0 && s.f.Out(c.state(), a.Input) == a.Output {
		nc := c.extend(a.Input)
		nc = nc.markUsed(len(nc.hist))
		if s.commitCompatibleWithAborts(i, nc) {
			ok, err := s.run(i+1, nc)
			if ok {
				s.commitLen[i] = len(nc.hist)
			}
			if err != nil || ok {
				return ok, err
			}
		}
	}
	// Append some other available input as an intermediate element.
	for in, cnt := range avail {
		if cnt <= 0 {
			continue
		}
		na := avail.Clone()
		na.Add(in, -1)
		ok, err := s.extendAndCommit(i, c.extend(in), na, a, visited)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// commitCompatibleWithAborts prunes commits that no abort interpretation
// could cover: a commit history is a prefix of every abort history, whose
// elements must be valid at the abort's index (Definition 28).
func (s *refSearcher) commitCompatibleWithAborts(i int, c refSChain) bool {
	if s.temporal {
		return true
	}
	elems := c.hist.Elems()
	for _, ob := range s.obligations {
		if ob.idx >= i {
			break
		}
		if !elems.SubsetOf(s.vi(ob.idx)) {
			return false
		}
	}
	return true
}

// dischargeObligations chooses an abort history for every abort action
// (the existential f_abort of Definition 19): a history r_init admits
// for the switch value, extending every commit history (strictly beyond L
// when none exists), with elements valid at the abort's index.
func (s *refSearcher) dischargeObligations(c refSChain) (bool, error) {
	for _, ob := range s.obligations {
		ok, err := s.dischargeAt(ob, c)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// dischargeAt finds an interpretation for a single abort obligation given
// the chain covering the commits it must extend.
func (s *refSearcher) dischargeAt(ob obligation, c refSChain) (bool, error) {
	vi := s.vi(ob.idx)
	if vi.Count(ob.input) < 1 {
		return false, nil
	}
	base := c.hist
	if c.nused == 0 {
		// No commits: abort histories need only extend L strictly
		// (when Init-Order applies); the chain is exactly L.
		base = s.L
	}
	if !base.Elems().SubsetOf(vi) {
		return false, nil
	}
	budget := vi.Clone()
	for _, in := range base {
		budget.Add(in, -1)
	}
	needStrict := s.initOrder && c.nused == 0
	h, ok, err := s.findAbortHistory(ob, base, budget, needStrict, map[string]bool{})
	if ok {
		s.abortHist[ob.idx] = h
	}
	return ok, err
}

// findAbortHistory searches extensions of base admitted by r_init(v),
// returning the first admitted history found.
func (s *refSearcher) findAbortHistory(ob obligation, h trace.History, budget trace.Multiset, needStrict bool, visited map[string]bool) (trace.History, bool, error) {
	if err := s.sp.spend(); err != nil {
		return nil, false, err
	}
	key := historyKey(h)
	if visited[key] {
		return nil, false, nil
	}
	visited[key] = true
	if !needStrict && s.rinit.Admits(ob.value, h) {
		return h, true, nil
	}
	for in, cnt := range budget {
		if cnt <= 0 {
			continue
		}
		nb := budget.Clone()
		nb.Add(in, -1)
		found, ok, err := s.findAbortHistory(ob, h.Append(in), nb, false, visited)
		if err != nil || ok {
			return found, ok, err
		}
	}
	return nil, false, nil
}
