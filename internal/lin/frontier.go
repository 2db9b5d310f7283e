package lin

import (
	"context"
	"slices"

	"repro/internal/adt"
	"repro/internal/trace"
)

// Meter is the search budget a check spends against, shared by every
// frontier of one check (one per lin.Session, one per init-interpretation
// combination of a slin.Session). Budget bounds the nodes spent since the
// driver last called StartFeed — one fed action's allowance (DESIGN.md,
// decision 34). Exhaustion returns the driver's own sentinel, so
// errors.Is against lin's or slin's ErrBudget holds for the engine that
// reports it.
type Meter struct {
	// Ctx is polled once every ctxPollMask+1 spent nodes.
	Ctx context.Context
	// Budget bounds the nodes one feed spends; BudgetErr is what
	// exceeding it returns.
	Budget    int
	BudgetErr error
	// Nodes counts the search nodes spent over the check's lifetime.
	Nodes int
	// feed is Nodes at the current feed's StartFeed.
	feed int
}

// StartFeed marks the start of a fed action: the budget covers what
// is spent from here on. It returns Nodes, for the driver's report of
// what the feed spent.
func (m *Meter) StartFeed() int {
	m.feed = m.Nodes
	return m.Nodes
}

// Spend charges n search nodes against the budget and polls the context
// at ctxPollMask boundaries.
func (m *Meter) Spend(n int) error {
	if n <= 0 {
		return nil
	}
	m.Nodes += n
	if m.Nodes-m.feed > m.Budget {
		return m.BudgetErr
	}
	if m.Nodes&ctxPollMask < n {
		if err := m.Ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Frontier is the frontier engine of both exact checkers (DESIGN.md,
// decisions 20 and 31): the configurations reachable after the actions
// fed so far, advanced by one response at a time. lin.Session embeds
// one; slin.Session holds one per init-interpretation combination. The
// driver owns everything else — well-formedness, what an invocation or a
// switch action means, the verdict — and steers the engine through Pool
// and the hooks below, which it sets before the first Expand.
//
// A configuration is the end state of a commit chain plus the chain's
// unclaimed entries: open operations it has linearized, each with its
// output, sorted by symbol. Its identity is the end state's hash plus
// the sum of trace.HashOutput over the entries, so configurations that
// committed the same operations in different orders are one. Expand
// replaces every configuration by its successors under a response — the
// claim of a matching entry, and every chain extension through Pool's
// available inputs that closes with the response's own input — merged by
// identity, and one visited set per response cuts every extension path
// into an identity already reached.
type Frontier struct {
	// Pool is the multiset of inputs a chain may still linearize. The
	// driver adjusts it: lin adds an input at its invocation and removes
	// it after its response's Expand; slin also adds what an init action
	// makes valid, so there Pool is the valid inputs minus the anchor and
	// the inputs of the responses fed. Every configuration's entries are
	// a sub-multiset of Pool.
	Pool trace.SparseMultiset
	// Ordered adds the chain's order to the identity: the sum of
	// trace.HashElem(position, symbol) over the chain's appends. The
	// driver sets it where a consumer reads chain order (slin's abort
	// discharge under an order-sensitive r_init).
	Ordered bool
	// Close, when non-nil, vets every closing successor by its sorted
	// unclaimed entries; false drops it. A claim never reaches it: it
	// leaves the chain as it was.
	Close func(entries []trace.Sym) bool

	f     adt.Folder
	in    *trace.Interner
	meter *Meter
	// chain keeps every configuration's commit chain (chain, pos); trail
	// keeps the assignment trail a witness reads (asn).
	chain, trail bool

	frontier []*cfg
	// look is the response lookahead of a one-shot check (nil for every
	// frontier a caller can feed further; see lookahead).
	look *lookahead

	// Recycled search state: configuration structs (with their entry
	// storage) retired when a frontier is replaced, the successor slice
	// and dedup index of the response being expanded, its visited set and
	// the availability scratch slice.
	cfgPool  []*cfg
	spare    []*cfg
	seen     map[trace.Digest]int
	visited  map[trace.Digest]struct{}
	availBuf []trace.SymCount
	// audit shadows the deduplication digests with full identities under
	// the memocheck build tag; a zero-size type of no-op methods otherwise.
	audit memoAudit
	// memo caches the folder's transitions (see transition); nil until the
	// first Expand, so a session that never expands allocates none.
	memo *[memoSlots]transition
}

// cfg is one frontier configuration: the end state of a commit chain
// and the chain's unclaimed entries — syms[i] was linearized to output
// outs[i] and no response has claimed it yet — in ascending symbol
// order (untagged duplicates sit side by side). Configurations are
// immutable once installed in a frontier (bar NoteAbort's trail node),
// own their entry storage, and are identified by dig: the end state's
// hash plus the commutative sum of trace.HashOutput over the entries,
// plus the chain term under Ordered. Everything a future transition can
// observe is in the digest and nothing else is, so deduplication merges
// exactly the configurations with identical futures.
//
// The remaining fields are not part of the identity. n is the chain's
// length; with a kept chain, chain is its last node and pos[i] the
// length of the prefix ending at entry i — what a claim of that entry
// records in the witness trail.
type cfg struct {
	end  adt.State
	endH trace.Digest // trace.HashString(end)
	syms []trace.Sym
	outs []trace.Value
	dig  trace.Digest

	n     int
	pos   []int
	chain *chainNode
	// asn is the assignment trail (response index -> claimed prefix
	// length, or abort index -> abort history) that produced this
	// configuration, for witness assembly; nil when the trail is off.
	asn *asnNode
}

// chainNode is one commit of a retained chain, linked towards the
// chain's start and shared by every configuration extending it.
type chainNode struct {
	prev *chainNode
	val  trace.Value
}

// asnNode is one step of a witness trail: response res claimed the
// chain prefix of length k, or — abort non-nil — abort action res was
// discharged inline with that history (slin's temporal Abort-Order).
type asnNode struct {
	prev  *asnNode
	res   int
	k     int
	abort trace.History
}

// maxPool bounds the retired-configuration pool, as a backstop against
// a transiently huge frontier parking an unbounded free list.
const maxPool = 4096

// NewFrontier returns an engine over folder f that keeps every
// configuration's commit chain, seeded with the one configuration whose
// chain is the anchor: end state fold(anchor) and no entries, so the
// anchor's positions are never claimable. Symbols come from in, search
// nodes are charged to m, and witness keeps the trail Trail reads.
func NewFrontier(f adt.Folder, in *trace.Interner, m *Meter, anchor trace.History, witness bool) *Frontier {
	e := &Frontier{}
	e.init(f, in, m, true, witness)
	c := &cfg{end: f.Empty(), n: len(anchor)}
	for _, v := range anchor {
		c.chain = &chainNode{prev: c.chain, val: v}
		c.end = f.Step(c.end, v)
	}
	c.endH = trace.HashString(string(c.end))
	c.dig = c.endH
	e.frontier = []*cfg{c}
	return e
}

func (e *Frontier) init(f adt.Folder, in *trace.Interner, m *Meter, chain, trail bool) {
	e.f, e.in, e.meter, e.chain, e.trail = f, in, m, chain, trail
}

// Width returns the number of configurations.
func (e *Frontier) Width() int { return len(e.frontier) }

// Entries returns configuration i's unclaimed entries in ascending
// symbol order; the caller must not modify them.
func (e *Frontier) Entries(i int) []trace.Sym { return e.frontier[i].syms }

// History returns configuration i's commit chain (NewFrontier's engines
// keep it).
func (e *Frontier) History(i int) trace.History { return e.history(e.frontier[i]) }

func (e *Frontier) history(c *cfg) trace.History {
	hist := make(trace.History, c.n)
	for i, nd := c.n-1, c.chain; nd != nil; i, nd = i-1, nd.prev {
		hist[i] = nd.val
	}
	return hist
}

// Trail returns the witness material of configuration i: the commit
// history of every response fed, by trace index, and the abort histories
// NoteAbort recorded along its lineage (nil when there are none).
func (e *Frontier) Trail(i int) (commits, aborts map[int]trace.History) {
	c := e.frontier[i]
	hist := e.history(c)
	commits = map[int]trace.History{}
	for n := c.asn; n != nil; n = n.prev {
		if n.abort == nil {
			commits[n.res] = hist[:n.k].Clone()
			continue
		}
		if aborts == nil {
			aborts = map[int]trace.History{}
		}
		aborts[n.res] = n.abort.Clone()
	}
	return commits, aborts
}

// NoteAbort records in configuration i's trail that abort action idx was
// discharged with history h (a no-op without a trail).
func (e *Frontier) NoteAbort(i, idx int, h trace.History) {
	if c := e.frontier[i]; e.trail {
		c.asn = &asnNode{prev: c.asn, res: idx, abort: h}
	}
}

// Retain keeps the configurations keep accepts, in order, and recycles
// the others; keep's first error stops the pass and is returned.
func (e *Frontier) Retain(keep func(i int) (bool, error)) error {
	kept := e.frontier[:0]
	for i, c := range e.frontier {
		ok, err := keep(i)
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, c)
		} else {
			e.putCfg(c)
		}
	}
	clear(e.frontier[len(kept):])
	e.frontier = kept
	return nil
}

// Lookahead installs the response lookahead of a one-shot check of the
// complete trace t (see lookahead): the responses still to come, counted
// from t, and never[sym], an upper bound on the entries of sym a
// configuration can hold at t's end — lin's count of the invocations
// that never respond when never is nil.
func (e *Frontier) Lookahead(t trace.Trace, never map[trace.Sym]int) {
	e.look = newLookahead(e.in, t)
	if never != nil {
		e.look.never = never
	}
}

// Expand replaces the frontier by its successor set under the response
// whose input is interned as asym, with output out at trace index idx.
// Successors own their storage, so the replaced frontier's
// configurations — and every duplicate emission — return to the pool.
// Pool is left to the driver.
//
// Expand charges a node per configuration, which emits at most a claim
// and a close, and one per extension step, which closes at most once:
// the successor frontier is at most twice as wide as the nodes charged,
// and no wider when the response's input is distinct from every other
// open one (decision 34). So the per-feed budget bounds the width too.
func (e *Frontier) Expand(asym trace.Sym, out trace.Value, idx int) error {
	if e.memo == nil {
		e.memo = new([memoSlots]transition)
	}
	in := e.in.Value(asym)
	old := e.frontier
	if e.look != nil {
		// This response closes its own extension or claims an entry made
		// earlier: what it linearizes on the way is left to later ones.
		e.look.future[symOut{asym, out}]--
	}
	// One visited set is shared between the extension searches of all
	// configurations, seeded with the configurations themselves: a
	// partial extension equal to one of them is cut at once, since that
	// configuration's own expansion emits its successors (and its claims
	// besides).
	if e.visited == nil {
		e.seen, e.visited = map[trace.Digest]int{}, map[trace.Digest]struct{}{}
	}
	clear(e.visited)
	clear(e.seen)
	e.audit.reset(e.Ordered)
	for _, c := range old {
		e.visited[c.dig] = struct{}{}
		if memocheckEnabled {
			e.audit.note(c.dig, c.end, c.syms, c.outs, e.auditChain(c, nil))
		}
	}
	e.spare = e.spare[:0]
	for _, c := range old {
		if err := e.meter.Spend(1); err != nil {
			return err
		}
		if err := e.expandCfg(c, in, out, asym, idx); err != nil {
			return err
		}
	}
	next := e.spare
	for _, c := range old {
		e.putCfg(c)
	}
	clear(old)
	e.frontier, e.spare = next, old[:0]
	return nil
}

// emit adds successor n to the one being built, or recycles it into the
// kept successor of the same identity.
func (e *Frontier) emit(n *cfg) {
	at, dup := e.seen[n.dig]
	if !dup {
		e.seen[n.dig] = len(e.spare)
		e.spare = append(e.spare, n)
		return
	}
	if memocheckEnabled {
		kept := e.spare[at]
		e.audit.note(kept.dig, kept.end, kept.syms, kept.outs, e.auditChain(kept, nil))
		e.audit.note(n.dig, n.end, n.syms, n.outs, e.auditChain(n, nil))
	}
	e.putCfg(n)
}

// expandCfg emits every successor of configuration c under the response
// (in, out): the claim of a matching unclaimed entry, plus every chain
// extension through available inputs that closes with the response's
// own input — every branch a commit can take, up to configuration
// identity.
func (e *Frontier) expandCfg(c *cfg, in, out trace.Value, asym trace.Sym, resIdx int) error {
	// Option 1: claim an unclaimed entry carrying the response's input
	// and output. Equal entries (untagged duplicates) have equal
	// successors, so the first one stands for all.
	for i, sym := range c.syms {
		if sym == asym && c.outs[i] == out {
			e.emit(e.claim(c, i, resIdx))
			break
		}
	}
	// Option 2: extend the chain with fresh inputs from the derived
	// availability (Pool minus what c already linearized, in ascending
	// symbol order), the last being the response's own input — which c
	// may have linearized already, leaving nothing to close with.
	avail := e.Pool.AppendDiff(e.availBuf[:0], c.syms)
	e.availBuf = avail
	closeAt := -1
	for i, a := range avail {
		if a.Sym == asym {
			closeAt = i
			break
		}
	}
	if closeAt < 0 {
		return nil
	}
	x := extension{c: c, in: in, out: out, asym: asym, resIdx: resIdx, avail: avail, closeAt: closeAt}
	return e.extend(&x, c.end, c.endH, c.dig.Sub(c.endH))
}

// claim returns c with entry i claimed by resIdx, that is, without it.
func (e *Frontier) claim(c *cfg, i, resIdx int) *cfg {
	n := e.newCfg()
	n.end, n.endH, n.n, n.chain, n.asn = c.end, c.endH, c.n, c.chain, c.asn
	n.syms = append(append(n.syms, c.syms[:i]...), c.syms[i+1:]...)
	n.outs = append(append(n.outs, c.outs[:i]...), c.outs[i+1:]...)
	n.dig = c.dig.Sub(trace.HashOutput(c.syms[i], c.outs[i]))
	if e.chain {
		n.pos = append(append(n.pos, c.pos[:i]...), c.pos[i+1:]...)
	}
	if e.trail {
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
	in, out trace.Value
	asym    trace.Sym
	resIdx  int
	avail   []trace.SymCount // counts are decremented and restored in place
	closeAt int              // index in avail of the response's own input
	syms    []trace.Sym
	outs    []trace.Value
}

// extend explores the chain extensions of x.c beyond x.syms, emitting a
// successor wherever the extension can close with the response's input.
// st is the extended chain's end state, stH its hash, and open the digest
// of its unclaimed entries (and, under Ordered, of its appends), so open
// plus a state's hash is the identity a partial extension would have as a
// configuration; it keys the visited set, and a second search path into
// the same partial configuration — the same operations appended in
// another order, or from another configuration — is cut there, its
// successors being the ones already emitted. Every arrival at a partial
// extension costs one node.
func (e *Frontier) extend(x *extension, st adt.State, stH, open trace.Digest) error {
	// Close: append the response's own input as a claimed element.
	if t := e.transition(st, stH, x.asym); t.out == x.out {
		end, endH := e.step(t)
		e.closeExt(x, end, endH, open)
	}
	// Continue: append any available input as an intermediate element —
	// except the last copy of the response's own input, after which no
	// extension could close.
	for i := range x.avail {
		sym := x.avail[i].Sym
		if x.avail[i].N <= 0 || (i == x.closeAt && x.avail[i].N == 1) {
			continue
		}
		if err := e.meter.Spend(1); err != nil {
			return err
		}
		t := e.transition(st, stH, sym)
		outIn := t.out
		if e.look != nil && e.look.unclaimable(x, sym, outIn) {
			continue
		}
		stIn, stInH := e.step(t)
		openIn := open.Add(trace.HashOutput(sym, outIn))
		if e.Ordered {
			openIn = openIn.Add(trace.HashElem(x.c.n+len(x.syms), sym))
		}
		dig := openIn.Add(stInH)
		if memocheckEnabled {
			ext := append(slices.Clone(x.syms), sym)
			e.audit.note(dig, stIn, slices.Concat(x.c.syms, ext),
				slices.Concat(x.c.outs, x.outs, []trace.Value{outIn}), e.auditChain(x.c, ext))
		}
		if _, hit := e.visited[dig]; hit {
			continue
		}
		e.visited[dig] = struct{}{}
		x.avail[i].N--
		x.syms, x.outs = append(x.syms, sym), append(x.outs, outIn)
		err := e.extend(x, stIn, stInH, openIn)
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
// at once by x.resIdx (so it never becomes an entry), and emits it
// unless Close drops it; stEnd is the chain's end state after the
// closing append, endH its hash and open the digest of the successor's
// entries.
func (e *Frontier) closeExt(x *extension, stEnd adt.State, endH, open trace.Digest) {
	c := x.c
	n := e.newCfg()
	n.end, n.endH, n.n, n.chain, n.asn = stEnd, endH, c.n+len(x.syms)+1, c.chain, c.asn
	n.dig = open.Add(endH)
	if e.Ordered {
		n.dig = n.dig.Add(trace.HashElem(n.n-1, x.asym))
	}
	n.syms, n.outs = append(n.syms, c.syms...), append(n.outs, c.outs...)
	if e.chain {
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
		if e.chain {
			n.pos = slices.Insert(n.pos, at, c.n+j+1)
		}
	}
	if e.Close != nil && !e.Close(n.syms) {
		e.putCfg(n)
		return
	}
	if e.chain {
		for _, sym := range x.syms {
			n.chain = &chainNode{prev: n.chain, val: e.in.Value(sym)}
		}
		n.chain = &chainNode{prev: n.chain, val: x.in}
	}
	if e.trail {
		n.asn = &asnNode{prev: c.asn, res: x.resIdx, k: n.n}
	}
	e.emit(n)
}

// auditChain is the chain behind the ordered identity of c extended by
// ext — nil under the position-free identity — for the memocheck audit.
func (e *Frontier) auditChain(c *cfg, ext []trace.Sym) []trace.Value {
	if !e.Ordered {
		return nil
	}
	h := e.history(c)
	for _, sym := range ext {
		h = append(h, e.in.Value(sym))
	}
	return h
}

// newCfg returns a configuration struct, recycled when the pool has
// one: zeroed except for its empty entry slices, whose storage the
// caller reuses.
func (e *Frontier) newCfg() *cfg {
	if n := len(e.cfgPool); n > 0 {
		c := e.cfgPool[n-1]
		e.cfgPool = e.cfgPool[:n-1]
		return c
	}
	return new(cfg)
}

// putCfg retires a configuration: the struct and its entry storage,
// which no successor shares, return to the pool.
func (e *Frontier) putCfg(c *cfg) {
	if len(e.cfgPool) < maxPool {
		*c = cfg{syms: c.syms[:0], outs: c.outs[:0], pos: c.pos[:0]}
		e.cfgPool = append(e.cfgPool, c)
	}
}

// memoBits sizes a frontier's transition memo: memoSlots slots of 72
// bytes, allocated at the frontier's first Expand.
const (
	memoBits  = 9
	memoSlots = 1 << memoBits
)

// transition is one slot of a frontier's transition memo (DESIGN.md,
// decision 32): what input sym does to state st. An extension search
// meets the same few (state, input) pairs at node after node, and a
// folder parses its state on every call, so the engine asks the folder
// once per pair and slot: out is Out(st, sym's input) when the slot is
// filled, next and nextH — Step's result and its hash — once a caller
// first needs them. The memo is direct-mapped: a pair's slot is picked
// by the state's hash and the symbol, and a pair that lands on an
// occupied slot evicts its occupant. A hit requires the stored state and
// symbol to equal the probe's exactly, and Folder's Step and Out are
// pure, so the memo answers what the folder would; it moves no node.
type transition struct {
	st      adt.State
	out     trace.Value
	next    adt.State
	nextH   trace.Digest
	sym     trace.Sym
	full    bool // the slot holds (st, sym) and out
	stepped bool // next and nextH are computed
}

// memoSlot returns the slot of the pair (state with hash h, sym).
func memoSlot(h trace.Digest, sym trace.Sym) int {
	return int((h[0] ^ uint64(sym)*0x9e3779b97f4a7c15) >> (64 - memoBits))
}

// transition returns the memo slot holding (st, sym), st's hash being
// stH, with its output known; a miss asks the folder and evicts the
// slot's occupant. The slot stays valid until the next call.
func (e *Frontier) transition(st adt.State, stH trace.Digest, sym trace.Sym) *transition {
	t := &e.memo[memoSlot(stH, sym)]
	if t.full && t.sym == sym && t.st == st {
		if memocheckEnabled {
			auditTransition(e.f, st, e.in.Value(sym), t)
		}
		return t
	}
	*t = transition{st: st, sym: sym, full: true, out: e.f.Out(st, e.in.Value(sym))}
	return t
}

// step returns the state slot t's input leads to from its state, and
// that state's hash, asking the folder on the slot's first need.
func (e *Frontier) step(t *transition) (adt.State, trace.Digest) {
	if !t.stepped {
		t.next = e.f.Step(t.st, e.in.Value(t.sym))
		t.nextH = trace.HashString(string(t.next))
		t.stepped = true
	}
	return t.next, t.nextH
}

// lookahead is what a one-shot check knows that an online session
// cannot (DESIGN.md, decisions 21 and 31): the responses still to come.
// An entry — an open operation linearized to an output — leaves a
// configuration only when a later response with that input and output
// claims it, and at the end of the trace a configuration holds no more
// entries of a symbol than the driver's never count for it (lin: the
// operations of that symbol that never respond; slin: the pool at the
// trace's end). So where never is zero, a configuration holding more
// (symbol, output) entries than responses with that pair remain cannot
// survive, and the extension that would create it is not made.
//
// The rule counts per symbol, not per operation: Validity is blind to
// which occurrence of an input a commit history ends with, so a
// response may claim an entry made while only another client's equal
// invocation was pending (TestRepeatedEventsDivergence).
type lookahead struct {
	// future counts the responses not yet expanded, by input and output.
	future map[symOut]int
	// never bounds, per input, the entries a configuration holds at the
	// end of the trace.
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
