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
//     non-overlapping operations. It accepts traces of any length: placed
//     sets spill from a single-word bitmask to a sparse word-array
//     representation past 63 operations (DESIGN.md, decision 13).
//
// Theorem 1/4 states the two definitions coincide; experiment E8 validates
// that this package's two checkers agree on randomly generated traces.
//
// Both checkers are exact decision procedures (worst-case exponential, as
// the problem is NP-hard) with memoization on folded ADT states. A step
// budget bounds pathological searches; exceeding it yields ErrBudget
// rather than a wrong verdict.
//
// Performance. The searches memoize on incrementally-maintained 128-bit
// digests of interned-symbol search states (DESIGN.md, decision 7) and
// mutate one chain/multiset in place with undo on backtrack, so the hot
// loop performs no per-node allocation or re-serialization. CheckReference
// retains the original string-keyed search as an executable specification;
// property tests assert the two agree.
package lin

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// ErrBudget is returned when a check exceeds its search budget; the
// trace's status is then unknown rather than decided.
var ErrBudget = errors.New("lin: search budget exhausted")

// ErrMemo is returned by the breadth (frontier) engine — Sessions and
// checks with WithWorkers(n > 1) — when a frontier exceeds the configured
// WithMemoLimit; the trace's status is then unknown. The depth-first
// engine never returns it (beyond the limit it stops inserting memo
// entries instead, trading time for bounded memory).
var ErrMemo = errors.New("lin: memo limit exceeded")

// DefaultBudget bounds the number of search nodes explored per check.
const DefaultBudget = 2_000_000

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
	// Nodes is the number of search nodes the check spent (always at most
	// the budget; comparable across Check, CheckClassical and slin.Check).
	Nodes int
	// Pruned is the number of extension branches the sleep-set
	// partial-order reduction skipped (check.WithPOR, on by default;
	// DESIGN.md decision 12). Always 0 with the reduction off — and from
	// the frontier engine (Sessions, Workers > 1), which has none — so
	// Nodes+Pruned accounting makes the reduction benchmarkable: every
	// pruned branch is a subtree the unreduced search would have entered.
	Pruned int
}

// Check decides linearizability of t with respect to f under the paper's
// new definition. The check is context-aware: cancellation of ctx aborts
// the search with ctx's error. The returned error is non-nil only for
// budget/memo exhaustion, cancellation or malformed inputs, never for a
// (correct) negative verdict.
//
// With check.WithWorkers(n) for n > 1 the check runs on the breadth
// (frontier) engine — the same engine Sessions use — expanding each
// response's frontier across n workers over a sharded memo set, so a
// single pathological trace uses all cores (DESIGN.md, decision 11). The
// default is the sequential depth-first search.
func Check(ctx context.Context, f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	return checkSettings(ctx, f, t, check.NewSettings(opts...))
}

func checkSettings(ctx context.Context, f adt.Folder, t trace.Trace, set check.Settings) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if !t.WellFormed() {
		return Result{OK: false, Reason: "trace is not well-formed"}, nil
	}
	if set.Workers > 1 {
		return checkStreaming(ctx, f, t, set)
	}
	s := newSearcher(ctx, f, t, set)
	ok, err := s.run(0)
	if err != nil {
		return Result{Nodes: s.nodes, Pruned: s.pruned}, err
	}
	if !ok {
		return Result{OK: false, Reason: "no linearization function exists", Nodes: s.nodes, Pruned: s.pruned}, nil
	}
	r := Result{OK: true, Nodes: s.nodes, Pruned: s.pruned}
	if set.Witness {
		w := Witness{}
		for i, k := range s.assigned {
			w[i] = s.best[:k].Clone()
		}
		r.Witness = w
	}
	return r, nil
}

// chain is the current commit-history chain: Commit-Order (Definition 12)
// totally orders commit histories by strict prefix, so all of them are
// prefixes of a single maximal history. The chain tracks that maximal
// history, the ADT state and output at every prefix length, and which
// lengths are already assigned to a commit index (each response must get a
// distinct prefix, but not necessarily in trace order).
//
// The chain is mutated in place along the search path (push/pop,
// setUsed/clearUsed) and maintains a canonical digest of its
// (symbol, used)-sequence incrementally in O(1) per mutation.
type chain struct {
	f    adt.Folder
	hist trace.History
	syms []trace.Sym
	// states[k] is the folded state of hist[:k]; states[0] is the empty
	// state, so len(states) == len(hist)+1.
	states []adt.State
	// outs[k-1] is f's output for the k-th input of hist applied at
	// states[k-1], i.e. the output of the operation committing hist[:k].
	outs []trace.Value
	// used marks prefix lengths already assigned to a commit index.
	used []bool
	dig  trace.Digest
}

func newChain(f adt.Folder) chain {
	return chain{f: f, states: []adt.State{f.Empty()}}
}

func (c *chain) len() int { return len(c.hist) }

func (c *chain) state() adt.State { return c.states[len(c.states)-1] }

// push appends input in (interned as sym) to the chain.
func (c *chain) push(in trace.Value, sym trace.Sym) {
	st := c.state()
	c.pushPre(in, sym, c.f.Step(st, in), c.f.Out(st, in))
}

// pushPre is push with the folder calls hoisted: stIn and out are
// f.Step/f.Out of in at the current end state, already computed by the
// caller (the reduced searches share the pair with the sleep-set
// propagation instead of computing it twice per branch).
func (c *chain) pushPre(in trace.Value, sym trace.Sym, stIn adt.State, out trace.Value) {
	c.dig = c.dig.Add(trace.HashElem(len(c.hist), sym, false))
	c.hist = append(c.hist, in)
	c.syms = append(c.syms, sym)
	c.states = append(c.states, stIn)
	c.outs = append(c.outs, out)
	c.used = append(c.used, false)
}

// pop undoes the most recent push. The popped element must be unused.
func (c *chain) pop() {
	n := len(c.hist) - 1
	c.dig = c.dig.Sub(trace.HashElem(n, c.syms[n], false))
	c.hist = c.hist[:n]
	c.syms = c.syms[:n]
	c.states = c.states[:n+1]
	c.outs = c.outs[:n]
	c.used = c.used[:n]
}

// setUsed marks prefix length k as assigned to a commit index.
func (c *chain) setUsed(k int) {
	c.dig = c.dig.Sub(trace.HashElem(k-1, c.syms[k-1], false)).Add(trace.HashElem(k-1, c.syms[k-1], true))
	c.used[k-1] = true
}

// clearUsed undoes setUsed(k).
func (c *chain) clearUsed(k int) {
	c.dig = c.dig.Sub(trace.HashElem(k-1, c.syms[k-1], true)).Add(trace.HashElem(k-1, c.syms[k-1], false))
	c.used[k-1] = false
}

// memoKey is the fixed-size memoization key of a search node: the action
// index plus the digests of the chain and the availability multiset.
type memoKey struct {
	i    int32
	c, a trace.Digest
}

type searcher struct {
	ctx       context.Context
	f         adt.Folder
	t         trace.Trace
	budget    int
	memoLimit int
	nodes     int
	// por enables the sleep-set reduction over extension branch sets;
	// pruned counts the branches it skipped (DESIGN.md, decision 12).
	por    bool
	pruned int
	in     *trace.Interner
	// isyms[i] is the interned symbol of t[i].Input.
	isyms  []trace.Sym
	failed map[memoKey]struct{}
	chain  chain
	avail  trace.SymMultiset
	// visitedPool recycles the per-response visited sets of
	// extendAndCommit, keeping commit handling allocation-free after
	// warmup.
	visitedPool trace.SetPool[visKey]
	// assigned maps commit (response) indices to the prefix length they
	// claimed, on the successful path; best is the final chain's history.
	assigned map[int]int
	best     trace.History
	// audit shadows the failed set with full string keys under the
	// memocheck build tag (digest-collision counting); a no-op otherwise.
	audit memoAudit
}

func newSearcher(ctx context.Context, f adt.Folder, t trace.Trace, set check.Settings) *searcher {
	s := &searcher{
		ctx:       ctx,
		f:         f,
		t:         t,
		budget:    set.BudgetOr(DefaultBudget),
		memoLimit: set.MemoLimit,
		por:       set.POR,
		in:        trace.NewInterner(),
		isyms:     make([]trace.Sym, len(t)),
		failed:    make(map[memoKey]struct{}),
		chain:     newChain(f),
	}
	for i, a := range t {
		s.isyms[i] = s.in.Sym(a.Input)
	}
	s.avail = trace.NewSymMultiset(s.in.Len())
	return s
}

// ctxPollMask throttles context polling in the search hot loops: the
// context is consulted once every ctxPollMask+1 spent nodes.
const ctxPollMask = 0x3ff

func (s *searcher) spend() error {
	s.nodes++
	if s.nodes > s.budget {
		return ErrBudget
	}
	if s.nodes&ctxPollMask == 0 && s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// run processes the trace from action index i against the searcher's
// current chain and multiset of invoked-but-uncommitted inputs; both are
// restored before it returns.
func (s *searcher) run(i int) (bool, error) {
	if err := s.spend(); err != nil {
		return false, err
	}
	if i == len(s.t) {
		s.best = s.chain.hist.Clone()
		if s.assigned == nil {
			s.assigned = map[int]int{}
		}
		return true, nil
	}
	key := memoKey{i: int32(i), c: s.chain.dig, a: s.avail.Digest()}
	if _, hit := s.failed[key]; hit {
		if memocheckEnabled {
			s.auditHit(key)
		}
		return false, nil
	}
	a := s.t[i]
	var ok bool
	var err error
	switch a.Kind {
	case trace.Inv:
		s.avail.Add(s.isyms[i], 1)
		ok, err = s.run(i + 1)
		s.avail.Add(s.isyms[i], -1)
	case trace.Res:
		ok, err = s.commit(i, a)
	default:
		return false, fmt.Errorf("lin: action %v does not belong to sig_T", a)
	}
	if err != nil {
		return false, err
	}
	if !ok {
		if s.memoLimit <= 0 || len(s.failed) < s.memoLimit {
			s.failed[key] = struct{}{}
			if memocheckEnabled {
				s.auditInsert(key)
			}
		}
		return false, nil
	}
	return true, nil
}

// commit handles a response action: the commit history g(i) must be a
// prefix of the chain (possibly created by extending it), ending with the
// response's input and explaining its output, at a prefix length no other
// commit has claimed.
func (s *searcher) commit(i int, a trace.Action) (bool, error) {
	asym := s.isyms[i]
	// Option 1: claim an existing unused prefix length. Elements already
	// in the chain were drawn from inputs invoked before the action that
	// appended them, hence before i, so Validity holds automatically.
	for k := 1; k <= s.chain.len(); k++ {
		if s.chain.used[k-1] || s.chain.syms[k-1] != asym || s.chain.outs[k-1] != a.Output {
			continue
		}
		s.chain.setUsed(k)
		ok, err := s.run(i + 1)
		s.chain.clearUsed(k)
		if err != nil {
			return false, err
		}
		if ok {
			s.assigned[i] = k
			return true, nil
		}
	}
	// Option 2: extend the chain with fresh inputs from avail, the last
	// being the response's own input. Intermediate appended elements
	// create new (unused) prefix lengths that later commits may claim.
	// The extension search starts with an empty sleep set: sleep sets are
	// local to one response's extension enumeration, so the verdict of a
	// run node stays a function of its (i, chain, avail) memo key.
	visited := s.visitedPool.Get()
	ok, err := s.extendAndCommit(i, a, asym, visited, check.SleepSet{})
	s.visitedPool.Put(visited)
	return ok, err
}

// visKey identifies a (chain, avail) configuration within one response's
// extension search.
type visKey struct{ c, a trace.Digest }

// extendAndCommit explores extensions of the chain drawn from avail. At
// every step it may close the extension by appending the response's input
// (if the output matches) or append any other available input and
// continue. visited prunes permutations reaching identical (chain, avail)
// configurations within this response.
//
// sleep is the sleep set of the partial-order reduction (DESIGN.md,
// decision 12): appending a sleeping symbol here is skipped because the
// same extension, with that symbol commuted to the front, was already
// explored under an earlier sibling branch. After a branch's subtree is
// exhausted its symbol goes to sleep for the later siblings; a child
// inherits the sleeping symbols that are independent with the branch it
// was reached by (dependent ones wake up). The close branch never sleeps
// — claiming the response's own input conflicts with every reordering.
func (s *searcher) extendAndCommit(i int, a trace.Action, asym trace.Sym, visited map[visKey]struct{}, sleep check.SleepSet) (bool, error) {
	if err := s.spend(); err != nil {
		return false, err
	}
	vk := visKey{c: s.chain.dig, a: s.avail.Digest()}
	if _, hit := visited[vk]; hit {
		return false, nil
	}
	visited[vk] = struct{}{}

	// Close: append the response's own input.
	if s.avail.Count(asym) > 0 && s.f.Out(s.chain.state(), a.Input) == a.Output {
		s.chain.push(a.Input, asym)
		k := s.chain.len()
		s.chain.setUsed(k)
		s.avail.Add(asym, -1)
		ok, err := s.run(i + 1)
		s.avail.Add(asym, 1)
		s.chain.clearUsed(k)
		s.chain.pop()
		if err != nil {
			return false, err
		}
		if ok {
			s.assigned[i] = k
			return true, nil
		}
	}
	// Continue: append some other available input as an intermediate.
	for sym := trace.Sym(0); int(sym) < s.avail.NumSyms(); sym++ {
		if s.avail.Count(sym) <= 0 {
			continue
		}
		if s.por && sleep.Has(sym) {
			s.pruned++
			continue
		}
		in := s.in.Value(sym)
		st := s.chain.state()
		stIn, outIn := s.f.Step(st, in), s.f.Out(st, in)
		var childSleep check.SleepSet
		if s.por {
			childSleep = sleep.FilterIndependent(s.f, s.in, st, in, stIn, outIn)
		}
		s.avail.Add(sym, -1)
		s.chain.pushPre(in, sym, stIn, outIn)
		ok, err := s.extendAndCommit(i, a, asym, visited, childSleep)
		s.chain.pop()
		s.avail.Add(sym, 1)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		if s.por {
			sleep = sleep.Add(sym)
		}
	}
	return false, nil
}
