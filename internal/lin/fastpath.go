package lin

import (
	"repro/internal/adt"
	"repro/internal/trace"
)

// This file holds the ADT-specialized fast-path cores' interface
// (DESIGN.md, decisions 15 and 36): linear/near-linear linearizability
// checkers for the register, consensus, queue, mutex and stack folders,
// obtained by reducing the Lin check inside a syntactic trace fragment
// to a per-ADT reachability condition (Bouajjani–Emmi–Enea–Hamza;
// Gibbons–Korach for the register). Check, NewSession and slin's
// NewSession at m = 1 run a core whenever the folder has one, unless
// check.WithExact; the session feeding it falls back to the exact
// engine the moment the trace leaves the fragment, and the diffcheck
// harness plus FuzzFastpathVsExact keep the two in verdict agreement.
//
// Fragment, per folder (anything else falls back to exact). Every
// fragment asks for pairwise-distinct input strings, which the session
// tests for all of them (Session.seen); the rest is the core's:
//
//   - register — grammar-valid inputs whose untagged written values are
//     pairwise distinct. SMR per-key histories satisfy this by
//     construction (writes encode the command value, reads carry unique
//     tags).
//   - consensus — grammar-valid proposals (equal untagged proposal
//     values are fine).
//   - queue — grammar-valid inputs, no enqueue of a value still live
//     (queued or in flight) and no empty-dequeue outputs (open
//     operations are fine: the core decides every prefix).
//   - mutex — grammar-valid inputs whose outputs are all "ok:" (an
//     "err:*" output is explainable by the ADT, so it falls back rather
//     than rejecting).
//   - stack — grammar-valid inputs, pairwise-distinct untagged push
//     values and no empty-pop outputs.
//
// In a witness-off session, which cuts at quiescent points (DESIGN.md,
// decisions 26 and 35), "pairwise distinct" means within the stretch
// since the last cut and against the values the cut's answer keeps.
//
// Inside the fragment the cores decide the verdict exactly; semantic
// violations (an output no linearization could explain) are final
// NotLinearizable verdicts, never fallbacks. The mutex and stack cores
// additionally exit the fragment — instead of rejecting — when their
// greedy simulations get stuck without a certain violation, so their
// rejects never rest on a completeness argument. Input distinctness is
// tested through a set of 64-bit digests (digestTable), so two distinct
// inputs may — with probability ~n²/2⁶⁵ — look alike: that, too, exits
// the fragment, and no reject rests on it. Asked for witnesses
// (check.WithWitness, the default), all cores assemble Lin witnesses
// that pass VerifyWitness, and keep the material for them only then; the
// queue core's witness is capped at fastQueueWitnessCap enqueued values
// (beyond it the positive Result carries an empty Witness).

// FastStatus is the per-action outcome of a streaming FastChecker.
type FastStatus uint8

const (
	// FastOK means the action stayed inside the fragment and the fed
	// trace remains linearizable.
	FastOK FastStatus = iota
	// FastReject means the fed trace is not linearizable; the verdict is
	// final (the exact engines agree, so no fallback is needed).
	FastReject
	// FastExit means the action left the specialized fragment; the
	// caller must fall back to an exact engine, replaying the trace fed
	// so far (Session: since its last quiescent cut, seeded with the
	// cut's states).
	FastExit
)

// FastChecker is a streaming ADT-specialized linearizability core. The
// session owns what every core would otherwise repeat: well-formedness
// — Inv and Res describe a per-client alternating Inv/Res stream — and
// input distinctness, so every input fed is distinct from the others fed
// since the last cut. idx is the action's trace index. Inv returns the
// operation's slot, the core's own handle on its record, which the
// session keeps with the open invocation and hands back to the
// operation's Res, with invIdx the invocation's trace index. After
// FastReject or FastExit the core must not be fed further.
type FastChecker interface {
	Inv(in trace.Value, idx int) (slot int32, st FastStatus)
	Res(in, out trace.Value, slot int32, invIdx, idx int) FastStatus
	// Witness assembles the linearization function of the (linearizable)
	// trace fed so far, or nil when the core was built without witnesses.
	Witness() Witness
}

// NewFastChecker returns the streaming specialized core for folder f,
// or nil when f has none.
// witness is the session's check.Settings.Witness: without it the core
// keeps only what the verdict needs and Witness returns nil.
func NewFastChecker(f adt.Folder, witness bool) FastChecker {
	f, collide := fastFolder(f)
	switch f.(type) {
	case adt.Register:
		return newFastRegister(witness, collide)
	case adt.Consensus:
		return newFastConsensus(witness)
	case adt.Queue:
		return newFastQueue(witness, collide)
	case adt.Mutex:
		return newFastMutex(witness)
	case adt.Stack:
		return newFastStack(witness)
	}
	return nil
}

// CollidingDigests is its folder with one difference, which only the
// fast paths see: the digest tables built for it — the session's and
// the cores' — hash every string to the same digest, so every table
// lookup collides. The differential tests wrap folders in it to hold
// the digest tables' soundness lines (digestTable) to the exact engines
// — with everything colliding, every verdict must still be the exact
// one, reached through a FastExit. Nothing outside tests builds one.
type CollidingDigests struct{ adt.Folder }

// fastFolder is the folder the fast-path dispatch switches on: f, or
// what a CollidingDigests wraps (collide then says so).
func fastFolder(f adt.Folder) (_ adt.Folder, collide bool) {
	if c, ok := f.(CollidingDigests); ok {
		return c.Folder, true
	}
	return f, false
}

// maxTree is an append-only segment tree over int values supporting
// point increase-updates and range-maximum queries, used by the
// register core to query the maximum block start among closed blocks
// while excluding one position. Capacity doubles by rebuilding (ops
// stay O(log n) amortized); absent positions report -1. Reset empties
// it for reuse.
type maxTree struct {
	size int   // leaves in use
	cap_ int   // leaf capacity, power of two (0 until first append)
	node []int // 1-based segment tree over cap_ leaves, len 2*cap_
}

// Append adds value v at position t.size.
func (t *maxTree) Append(v int) {
	if t.size == t.cap_ {
		ncap := t.cap_ * 2
		if ncap == 0 {
			ncap = 1
		}
		old := t.node
		t.node = make([]int, 2*ncap)
		for i := range t.node {
			t.node[i] = -1
		}
		for i := 0; i < t.size; i++ {
			t.node[ncap+i] = old[t.cap_+i]
		}
		t.cap_ = ncap
		for i := ncap - 1; i >= 1; i-- {
			t.node[i] = maxInt(t.node[2*i], t.node[2*i+1])
		}
	}
	t.Update(t.size, v)
	t.size++
}

// Reset empties the tree, keeping its capacity, in time proportional to
// the positions in use: only their leaves and ancestors hold values.
func (t *maxTree) Reset() {
	for lo, hi := t.cap_, t.cap_+t.size; lo >= 1 && lo < hi; lo, hi = lo/2, (hi+1)/2 {
		for i := lo; i < hi; i++ {
			t.node[i] = -1
		}
	}
	t.size = 0
}

// Update raises position pos to value v (values only ever grow).
func (t *maxTree) Update(pos, v int) {
	i := t.cap_ + pos
	if t.node[i] >= v {
		return
	}
	t.node[i] = v
	for i > 1 {
		i /= 2
		m := maxInt(t.node[2*i], t.node[2*i+1])
		if t.node[i] == m {
			break
		}
		t.node[i] = m
	}
}

// Max returns the maximum value over positions [lo, hi), or -1 when the
// range is empty.
func (t *maxTree) Max(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > t.size {
		hi = t.size
	}
	res := -1
	l, r := t.cap_+lo, t.cap_+hi
	for l < r {
		if l&1 == 1 {
			res = maxInt(res, t.node[l])
			l++
		}
		if r&1 == 1 {
			r--
			res = maxInt(res, t.node[r])
		}
		l /= 2
		r /= 2
	}
	return res
}

// ArgMax returns the leftmost position holding the maximum value, or -1
// when the tree is empty.
func (t *maxTree) ArgMax() int {
	if t.size == 0 {
		return -1
	}
	i := 1
	for i < t.cap_ {
		i *= 2
		if t.node[i] != t.node[i/2] {
			i++
		}
	}
	return i - t.cap_
}

// MaxExcluding returns the maximum over positions [0, hi) skipping pos.
func (t *maxTree) MaxExcluding(hi, pos int) int {
	if pos < 0 || pos >= hi {
		return t.Max(0, hi)
	}
	return maxInt(t.Max(0, pos), t.Max(pos+1, hi))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
