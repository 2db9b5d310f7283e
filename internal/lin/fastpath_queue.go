package lin

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adt"
	"repro/internal/trace"
)

// fastQueue is the streaming FIFO-queue fast path (DESIGN.md, decisions
// 15 and 33): the matched enqueue/dequeue analysis of
// Bouajjani–Emmi–Enea–Hamza, evaluated as the history arrives. Its
// fragment: grammar-valid, pairwise-distinct inputs (the session checks
// them), no enqueue of a value still live — queued or in flight — and no
// empty-dequeue outputs. A value whose enqueue and dequeue have both
// responded may come back under another input: the earlier pair precedes
// the later enqueue, which forces every matching, so the two act as
// distinct values.
//
// Let m be the largest enqueue invocation among the values dequeued so
// far. A queued value — its enqueue responded, no dequeue returned it —
// is owed once its enqueue responded before m: some dequeued value was
// enqueued wholly after it, so FIFO needs it out first. Its deadline is
// the dequeue response that raised m past it, and only a dequeue
// invoked before that response can return it. Inside the fragment, a
// prefix is linearizable iff
//
//	(a) every dequeue returned a value whose enqueue was invoked before
//	    the dequeue responded, and no value was returned twice;
//	(b) no dequeue returned a value that was already owed when the
//	    dequeue was invoked;
//	(c) the open dequeues can absorb the owed values: with both sorted
//	    by deadline, the k-th owed value has k open dequeues invoked
//	    before its deadline.
//
// (a) and (b) are the one-shot conditions of the same names, each
// checked at the response that completes its pattern. (c) is the
// completion argument: the prefix is linearizable iff some completion
// is, a completion must dequeue every owed value with an open dequeue
// invoked before its deadline, and dequeuing only those values — open
// enqueues respond last, the other open dequeues are left out — raises
// m no further and meets the one-shot conditions (a)–(c). Nothing but a
// dequeue response can falsify (a)–(c), so the other actions only
// record.
//
// Deadlines are epochs: epoch counts the rises of m, an owed value keeps
// the epoch that made it owed, and an open dequeue the epoch at its
// invocation (the snapshot of m that (b) compares with). A dequeue
// invoked before a value's deadline is one with a lower epoch. The
// queued values are kept by enqueue response, so the owed ones are a
// prefix of them whose end only moves forward; the owed values sit in a
// list by epoch as long as the open dequeues, whose own list is by
// invocation, so (c) is one merge of the two.
//
// Quiescent cut (DESIGN.md, decision 33): the frontier's states at a
// quiescent point are every order of the queued values that their
// enqueues' real-time order allows — the dequeued values' enqueues all
// linearize first, no dequeue reaches the values behind them, and the
// fragment has no empty dequeue to notice them — which is too many to
// list. cutStates answers with no states, marking the cut, and a
// fallback asks cutSeed for the enqueues of the values queued there:
// replayed from the empty queue, they reach exactly those states. So the
// core keeps the values queued at its last cut and dequeued since, and
// no record of the others once both their ends are done. A cut restarts
// the core (decision 35): index, which gains an entry per enqueue, is
// rebuilt from the values still queued once it holds twice as many
// entries, so that a rebuild costs no more than the entries it drops. A
// value enqueued after the cut must differ from those still queued,
// which the seed replays and the index still finds; one dequeued at both
// ends, before the cut or since, is gone from every state that follows.
//
// What the witness needs and the verdict does not — every operation's
// input and interval — is kept only when the session asked for
// witnesses (DESIGN.md, decision 24).
type fastQueue struct {
	witness bool
	// index maps an untagged value to its record, exactly: an entry whose
	// record was released, reused or kept only for the seed fails the
	// comparison, so a value is found from its enqueue's invocation until
	// it is dequeued with its enqueue responded.
	index digestTable
	vals  []queueVal // records; free lists the unused ones
	free  []int32
	// q holds the queued values by enqueue response: a record, or -1 once
	// dequeued. Absolute position p is q[p-qOff]; q[:qh] is all -1.
	q      []int32
	qOff   int
	qh     int
	owedTo int       // absolute: the queued values before it are owed
	m      int       // largest enqueue invocation among dequeued values, -1 before any
	epoch  int       // the rises of m so far
	owed   []int32   // owed records, by epoch
	deqs   []openDeq // open dequeues, by invocation
	last   int       // the index of the last action fed
	cutAt  int       // the index after the last cut
	since  []int32   // records queued at the last cut and dequeued since
	ops    []queueOp // witness: every operation, by invocation
}

// queueVal is one enqueued value's record.
type queueVal struct {
	in       trace.Value // the enqueue's input
	inv, res int         // its enqueue's indices; res is -1 while it is open
	qpos     int         // its absolute position in q once queued
	epoch    int         // the epoch that made it owed, 0 while not owed
	deq      bool        // a dequeue returned it
}

// openDeq is an open dequeue: its invocation index and the epoch then.
type openDeq struct{ inv, epoch int }

// absorbs reports whether open dequeue d was invoked before owed value
// v's deadline, so it may be the dequeue that returns v.
func absorbs(d openDeq, v *queueVal) bool { return d.epoch < v.epoch }

func newFastQueue(witness, collide bool) *fastQueue {
	return &fastQueue{
		witness: witness,
		index:   digestTable{collide: collide},
		m:       -1,
	}
}

// enqArg is the untagged value of the enqueue input in.
func enqArg(in trace.Value) string {
	_, arg, _ := strings.Cut(string(adt.Untag(in)), ":")
	return arg
}

// Inv implements FastChecker: an enqueue's slot is its value's record,
// a dequeue's -1.
func (c *fastQueue) Inv(in trace.Value, idx int) (slot int32, st FastStatus) {
	c.last = idx
	op, arg, ok := strings.Cut(string(adt.Untag(in)), ":")
	switch {
	case !ok:
		return 0, FastExit
	case op == "enq":
		if arg == "" || arg == string(adt.Bottom) || strings.ContainsRune(arg, '\x00') {
			return 0, FastExit // grammar-invalid enqueue; exact semantics differ
		}
		i := c.alloc()
		if _, live := c.index.claim(arg, int(i), func(pos int) bool { return c.live(pos, arg) }); live {
			return 0, FastExit // two live values alike: which one a dequeue returns is open
		}
		c.vals[i] = queueVal{in: in, inv: idx, res: -1}
		slot = i
	case op == "deq" && arg == "":
		slot = -1
		c.deqs = append(c.deqs, openDeq{inv: idx, epoch: c.epoch})
	default:
		return 0, FastExit
	}
	if c.witness {
		c.ops = append(c.ops, queueOp{in: in, inv: idx, res: -1, peer: -1, enq: op == "enq"})
	}
	return slot, FastOK
}

// Res implements FastChecker.
func (c *fastQueue) Res(in, out trace.Value, slot int32, invIdx, idx int) FastStatus {
	c.last = idx
	if slot >= 0 {
		return c.enqueued(out, slot, invIdx, idx)
	}
	k, _ := slices.BinarySearchFunc(c.deqs, invIdx, func(d openDeq, inv int) int { return d.inv - inv })
	d := c.deqs[k]
	c.deqs = slices.Delete(c.deqs, k, k+1)
	vop, x, ok := strings.Cut(string(out), ":")
	if !ok || vop != "v" {
		return FastReject // dequeues can only ever output "v:x"
	}
	if x == string(adt.Bottom) {
		return FastExit // empty dequeue: outside the fragment
	}
	i, ok := c.find(x)
	if !ok || c.vals[i].deq {
		return FastReject // (a): never enqueued before now, or returned twice
	}
	v := &c.vals[i]
	if v.epoch > 0 && !absorbs(d, v) {
		return FastReject // (b): owed before this dequeue was invoked
	}
	if c.witness {
		e, o := c.opAt(v.inv), c.opAt(invIdx)
		c.ops[o].res, c.ops[o].peer, c.ops[e].peer = idx, e, o
	}
	v.deq = true
	if v.epoch > 0 {
		k := slices.Index(c.owed, i)
		c.owed = slices.Delete(c.owed, k, k+1)
	}
	inv := v.inv
	if v.res >= 0 {
		c.q[v.qpos-c.qOff] = -1
		c.retire(i)
		c.trim()
	}
	if inv > c.m {
		c.m = inv
		c.epoch++
		c.advance()
	}
	// (c): the k-th owed value by deadline needs k open dequeues invoked
	// before it; both lists are sorted by epoch.
	if len(c.owed) > len(c.deqs) {
		return FastReject
	}
	for k, i := range c.owed {
		if !absorbs(c.deqs[k], &c.vals[i]) {
			return FastReject
		}
	}
	return FastOK
}

// enqueued is Res for the enqueue of record i, invoked at invIdx: its
// value joins the queued ones, unless a dequeue returned it already.
func (c *fastQueue) enqueued(out trace.Value, i int32, invIdx, idx int) FastStatus {
	if out != adt.WriteOutput() {
		return FastReject
	}
	v := &c.vals[i]
	v.res = idx
	if c.witness {
		c.ops[c.opAt(invIdx)].res = idx
	}
	if v.deq {
		c.retire(i)
	} else {
		v.qpos = c.qOff + len(c.q)
		c.q = append(c.q, i)
	}
	return FastOK
}

// find returns the record of value x: the oldest queued value, as FIFO
// mostly has it, or what the index says.
func (c *fastQueue) find(x string) (int32, bool) {
	if c.qh < len(c.q) && enqArg(c.vals[c.q[c.qh]].in) == x {
		return c.q[c.qh], true
	}
	pos, ok := c.index.get(x, func(pos int) bool { return c.live(pos, x) })
	return int32(pos), ok
}

// live reports whether record pos holds value x and x is live: invoked,
// and not dequeued with its enqueue responded.
func (c *fastQueue) live(pos int, x string) bool {
	v := &c.vals[pos]
	return v.in != "" && !(v.deq && v.res >= 0) && enqArg(v.in) == x
}

// advance makes the queued values whose enqueues responded before m
// owed, with the current epoch as their deadline.
func (c *fastQueue) advance() {
	p := max(c.owedTo-c.qOff, c.qh)
	for ; p < len(c.q); p++ {
		if i := c.q[p]; i >= 0 {
			if c.vals[i].res > c.m {
				break // q is by response: so are the rest
			}
			c.vals[i].epoch = c.epoch
			c.owed = append(c.owed, i)
		}
	}
	c.owedTo = c.qOff + p
}

// trim moves qh past the dequeued values at q's front and, once they are
// half of q, drops them, copying no more slots than it drops.
func (c *fastQueue) trim() {
	for c.qh < len(c.q) && c.q[c.qh] < 0 {
		c.qh++
	}
	if 2*c.qh >= len(c.q) {
		n := copy(c.q, c.q[c.qh:])
		c.q = c.q[:n]
		c.qOff += c.qh
		c.qh = 0
	}
}

func (c *fastQueue) alloc() int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		return i
	}
	c.vals = append(c.vals, queueVal{})
	return int32(len(c.vals) - 1)
}

// retire ends record i once its value was dequeued and its enqueue
// responded: it is kept for the seed only if the value was queued at the
// last cut.
func (c *fastQueue) retire(i int32) {
	if c.vals[i].inv < c.cutAt {
		c.since = append(c.since, i)
		return
	}
	c.release(i)
}

func (c *fastQueue) release(i int32) {
	c.vals[i] = queueVal{}
	c.free = append(c.free, i)
}

// cutStates implements cutter: the states are too many to list (see the
// type comment), so the core marks the cut, answers with its seed and
// restarts.
func (c *fastQueue) cutStates() ([]adt.State, bool) {
	for _, i := range c.since {
		c.release(i)
	}
	c.since = c.since[:0]
	c.cutAt = c.last + 1
	// No operation is open, so the records held are the queued values.
	if queued := len(c.vals) - len(c.free); c.index.n >= 2*queued {
		c.index.reset()
		for _, i := range c.q[c.qh:] {
			if i >= 0 {
				c.index.put(enqArg(c.vals[i].in), int(i))
			}
		}
	}
	return nil, true
}

// cutSeed implements cutter: the enqueues of the values queued at the
// last cut — those still queued and those dequeued since — as complete
// operations in the order their actions were fed, each open seed
// operation on a client of its own.
func (c *fastQueue) cutSeed() trace.Trace {
	type event struct {
		idx int
		rec int32
	}
	var evs []event
	add := func(i int32) {
		evs = append(evs, event{c.vals[i].inv, i}, event{c.vals[i].res, i})
	}
	for _, i := range c.q[c.qh:] {
		if i >= 0 && c.vals[i].inv < c.cutAt {
			add(i)
		}
	}
	for _, i := range c.since {
		add(i)
	}
	slices.SortFunc(evs, func(a, b event) int { return a.idx - b.idx })
	seed := make(trace.Trace, 0, len(evs))
	client := map[int32]trace.ClientID{}
	var idle []trace.ClientID
	for _, e := range evs {
		v := &c.vals[e.rec]
		if e.idx == v.inv {
			var id trace.ClientID
			if n := len(idle); n > 0 {
				id, idle = idle[n-1], idle[:n-1]
			} else {
				id = trace.ClientID("seed" + strconv.Itoa(len(client)))
			}
			client[e.rec] = id
			seed = append(seed, trace.Invoke(id, 1, v.in))
			continue
		}
		seed = append(seed, trace.Response(client[e.rec], 1, v.in, adt.WriteOutput()))
		idle = append(idle, client[e.rec])
	}
	return seed
}

// queueOp is one queue operation's witness material: its input and
// interval, and the operation at its value's other end.
type queueOp struct {
	in       trace.Value
	inv, res int // res is -1 while the operation is open
	// peer is the position in ops of the operation at the value's other
	// end: an enqueue's is the dequeue that returned its value, a
	// dequeue's the enqueue of the value it returned; -1 when none.
	peer int
	enq  bool
}

// opAt is the position in ops of the operation invoked at index inv.
func (c *fastQueue) opAt(inv int) int {
	return sort.Search(len(c.ops), func(i int) bool { return c.ops[i].inv >= inv })
}

// Witness implements FastChecker: the fed prefix is completed as the
// type comment's argument does — the k-th owed value by deadline is
// returned by the k-th open dequeue, those dequeues and the open
// enqueues respond after everything — and queueWitness linearizes the
// completion; the completion's own responses are left out.
func (c *fastQueue) Witness() Witness {
	if !c.witness {
		return nil
	}
	ops := slices.Clone(c.ops)
	end := c.last + 1
	next := end
	for k, i := range c.owed {
		d, e := c.opAt(c.deqs[k].inv), c.opAt(c.vals[i].inv)
		ops[d].res, ops[d].peer, ops[e].peer = next, e, d
		next++
	}
	for i := range ops {
		if ops[i].enq && ops[i].res < 0 {
			ops[i].res = next
			next++
		}
	}
	w := queueWitness(ops)
	for r := end; r < next; r++ {
		delete(w, r)
	}
	return w
}

// fastQueueWitnessCap bounds the queue core's witness assembly: the
// linear-extension step below is quadratic in the dequeued-value
// count, so past the cap a positive verdict reports an empty Witness
// (documented at the dispatch layer; large hunt runs disable witnesses
// anyway).
const fastQueueWitnessCap = 4096

// queueWitness assembles a Lin witness for a complete linearizable
// queue history in the fragment, given as its operations by invocation
// (an operation with res -1 is left out). The matched values are
// ordered by a common linear extension τ of the three forced
// precedences — res(enq u) < inv(enq v), res(deq u) < inv(deq v), and
// res(deq u) < inv(enq v) each force u before v in FIFO order — via
// Kahn's algorithm (a linearization exists, so the union digraph is
// acyclic); unmatched values follow all matched ones, sorted by enqueue
// invocation (no unmatched value precedes a matched one, so that
// placement is real-time consistent). A single sweep over the responses
// in trace order then linearizes lazily: each operation at its own
// response, forced helpers — τ-earlier enqueues and dequeues still in
// flight — just before, every linearization point provably inside its
// operation's interval. Returns nil past fastQueueWitnessCap (or,
// defensively, if no extension is found).
func queueWitness(ops []queueOp) Witness {
	// rem holds the matched values still to place, as the positions of
	// their enqueues, by enqueue invocation; unmatched the others.
	var rem, unmatched []int
	for i := range ops {
		switch {
		case !ops[i].enq:
		case ops[i].peer >= 0:
			rem = append(rem, i)
		default:
			unmatched = append(unmatched, i)
		}
	}
	if len(rem)+len(unmatched) > fastQueueWitnessCap {
		return nil
	}
	tau := make([]int, 0, len(rem))
	for len(rem) > 0 {
		pick := -1
		for i, vi := range rem {
			ve, vd := &ops[vi], &ops[ops[vi].peer]
			free := true
			for _, ui := range rem {
				if ui == vi {
					continue
				}
				ue, ud := &ops[ui], &ops[ops[ui].peer]
				if ue.res < ve.inv || ud.res < vd.inv || ud.res < ve.inv {
					free = false
					break
				}
			}
			if free {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil // defensive: the verdict proved an extension exists
		}
		tau = append(tau, rem[pick])
		rem = append(rem[:pick], rem[pick+1:]...)
	}

	// Enqueue linearization order: τ's matched values, then the
	// unmatched ones by invocation. enqPos and tauPos are indexed by the
	// enqueue's position in ops.
	enqOrder := append(append(make([]int, 0, len(tau)+len(unmatched)), tau...), unmatched...)
	enqPos := make([]int, len(ops))
	for i, e := range enqOrder {
		enqPos[e] = i
	}
	tauPos := make([]int, len(ops))
	for i, e := range tau {
		tauPos[e] = i
	}

	// Sweep the responses in trace order; pos[op] is the claimed chain
	// prefix once the op linearizes.
	var byRes []int
	for i := range ops {
		if ops[i].res >= 0 {
			byRes = append(byRes, i)
		}
	}
	slices.SortFunc(byRes, func(i, j int) int { return ops[i].res - ops[j].res })
	var chain trace.History
	pos := make([]int, len(ops))
	eptr, dptr := 0, 0
	linEnqsThrough := func(target int) {
		for eptr <= target {
			e := enqOrder[eptr]
			chain = append(chain, ops[e].in)
			pos[e] = len(chain)
			eptr++
		}
	}
	w := Witness{}
	for _, oi := range byRes {
		o := &ops[oi]
		if o.enq {
			linEnqsThrough(enqPos[oi])
		} else {
			if o.peer < 0 {
				return nil // defensive: every responded dequeue is matched
			}
			for target := tauPos[o.peer]; dptr <= target; dptr++ {
				e := tau[dptr]
				linEnqsThrough(enqPos[e])
				chain = append(chain, ops[ops[e].peer].in)
				pos[ops[e].peer] = len(chain)
			}
		}
		w[o.res] = chain[:pos[oi]].Clone()
	}
	return w
}
