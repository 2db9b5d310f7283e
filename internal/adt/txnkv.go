package adt

import (
	"strings"

	"repro/internal/trace"
)

// TxnKV is a multi-key key-value map ADT: the product folder the
// multi-object checker uses for histories whose keys are entangled by
// cross-shard transactions (DESIGN.md, decision 18). Herlihy–Wing
// locality lets per-key register checking cover single-key traffic, but a
// transaction touching keys on several shards makes their merged history
// the unit of correctness — TxnKV is that merged object.
//
// Inputs (occurrence tags attached via Tag are stripped first):
//
//	"w:" k FS v    single-key write            → "ok:"
//	"r:" k         single-key read             → "v:x" (x = value or ⊥)
//	"t:" ops       committed-style transaction → "c:" reads, or "a:"
//	"n:" ops       aborted transaction (no-op) → "a:"
//
// where FS is TxnFieldSep and ops is a TxnOpSep-separated list of
// operations, each "r" FS k (read), "w" FS k FS v (write), or
// "c" FS k FS expect FS v (compare-and-swap: write v if the key's value
// equals expect; expect ⊥ means "unset"). Keys within one transaction
// must be distinct, so reads observe the pre-transaction state.
//
// A "t:" transaction commits exactly when every CAS condition holds on
// the current state: it then applies all its writes atomically and
// outputs "c:" followed by the read values (in operation order, joined
// by FS); otherwise it applies nothing and outputs "a:". An "n:"
// transaction never has an effect and always outputs "a:" — the SMR
// layer records every abort (conflict, failed condition, or recovery
// timeout) as "n:" so the checker verifies aborted transactions left no
// per-key trace without having to predict why the run aborted them
// (abort-on-conflict is scheduling-dependent, and Folder outputs must be
// deterministic).
type TxnKV struct{}

var _ Folder = TxnKV{}

const (
	// TxnOpSep separates the operations of a transaction input.
	TxnOpSep = "\x1e"
	// TxnFieldSep separates the fields of one operation, the fields of a
	// "w:" write input, and the read values of a commit output.
	TxnFieldSep = "\x1f"
)

// TxnWriteInput returns the single-key write input for key k.
func TxnWriteInput(k string, v trace.Value) trace.Value {
	return trace.Value("w:" + k + TxnFieldSep + string(v))
}

// TxnReadInput returns the single-key read input for key k.
func TxnReadInput(k string) trace.Value { return trace.Value("r:" + k) }

// TxnOpRead encodes a transactional read of key k.
func TxnOpRead(k string) string { return "r" + TxnFieldSep + k }

// TxnOpWrite encodes a transactional write of v to key k.
func TxnOpWrite(k string, v trace.Value) string {
	return "w" + TxnFieldSep + k + TxnFieldSep + string(v)
}

// TxnOpCAS encodes a transactional compare-and-swap on key k: write v if
// the key currently holds expect (Bottom for "unset").
func TxnOpCAS(k string, expect, v trace.Value) string {
	return "c" + TxnFieldSep + k + TxnFieldSep + string(expect) + TxnFieldSep + string(v)
}

// TxnInput assembles a transaction input from encoded operations.
// aborted selects the "n:" no-op form.
func TxnInput(ops []string, aborted bool) trace.Value {
	var b strings.Builder
	if aborted {
		b.WriteString("n:")
	} else {
		b.WriteString("t:")
	}
	for i, op := range ops {
		if i > 0 {
			b.WriteString(TxnOpSep)
		}
		b.WriteString(op)
	}
	return b.String()
}

// TxnCommitOutput returns the output of a committed transaction whose
// reads observed the given values (in operation order).
func TxnCommitOutput(reads []trace.Value) trace.Value {
	out := "c:"
	for i, v := range reads {
		if i > 0 {
			out += TxnFieldSep
		}
		out += string(v)
	}
	return trace.Value(out)
}

// TxnAbortOutput returns the output of an aborted transaction.
func TxnAbortOutput() trace.Value { return "a:" }

// The state is the canonical encoding of the map: its k FS v pairs in
// ascending key order, joined by TxnOpSep; the empty map is the empty
// state. Step and Out read it, and a transaction's operations, where
// they lie: Out allocates only the output it returns, and Step builds a
// changed state in one allocation of its exact size.

// txnOp is one transactional operation, its fields substrings of the
// input.
type txnOp struct {
	kind   byte // 'r', 'w' or 'c'
	key    string
	expect string // CAS only
	val    string // write/CAS only
}

// cutTxnOp parses the first operation of a TxnOpSep-joined list and
// returns the list after it; more is false at the last operation, ok
// false on a grammar violation.
func cutTxnOp(enc string) (op txnOp, rest string, more, ok bool) {
	enc, rest, more = strings.Cut(enc, TxnOpSep)
	var fs [4]string
	n := 0
	for found := true; found; n++ {
		if n == len(fs) {
			return op, rest, more, false
		}
		fs[n], enc, found = strings.Cut(enc, TxnFieldSep)
	}
	switch {
	case n == 2 && fs[0] == "r":
		op = txnOp{kind: 'r', key: fs[1]}
	case n == 3 && fs[0] == "w":
		op = txnOp{kind: 'w', key: fs[1], val: fs[2]}
	case n == 4 && fs[0] == "c":
		op = txnOp{kind: 'c', key: fs[1], expect: fs[2], val: fs[3]}
	default:
		return op, rest, more, false
	}
	return op, rest, more, true
}

// txnOpsValid reports whether enc is a TxnOpSep-joined operation list
// with non-empty, distinct keys. Each key is checked against the ones
// before it by a scan of the list's prefix: transactions are short.
func txnOpsValid(enc string) bool {
	if enc == "" {
		return false
	}
	for rest, more := enc, true; more; {
		before := enc[:len(enc)-len(rest)]
		var op txnOp
		var ok bool
		if op, rest, more, ok = cutTxnOp(rest); !ok || op.key == "" || txnOpsHaveKey(before, op.key) {
			return false
		}
	}
	return true
}

// txnOpsHaveKey reports whether a valid operation list, each operation
// followed by TxnOpSep, touches key k.
func txnOpsHaveKey(ops, k string) bool {
	for ops != "" {
		var op txnOp
		op, ops, _, _ = cutTxnOp(ops)
		if op.key == k {
			return true
		}
	}
	return false
}

// Name implements ADT.
func (TxnKV) Name() string { return "txnkv" }

// ValidInput implements ADT. A single-key input's key and value hold no
// TxnOpSep: the state separates its pairs with it, so a written one would
// read back as other pairs.
func (TxnKV) ValidInput(in trace.Value) bool {
	op, arg, has := split2(Untag(in))
	if !has {
		return false
	}
	switch op {
	case "w":
		k, v, ok := strings.Cut(arg, TxnFieldSep)
		return ok && k != "" && v != "" && !strings.Contains(arg, TxnOpSep)
	case "r":
		return arg != "" && !strings.ContainsAny(arg, TxnFieldSep+TxnOpSep)
	case "t", "n":
		return txnOpsValid(arg)
	default:
		return false
	}
}

// kvGet reads key k of state s, Bottom when unset.
func kvGet(s State, k string) string {
	for rest, more := string(s), s != ""; more; {
		var pair string
		pair, rest, more = strings.Cut(rest, TxnOpSep)
		switch pk, v, _ := strings.Cut(pair, TxnFieldSep); {
		case pk == k:
			return v
		case pk > k:
			return string(Bottom)
		}
	}
	return string(Bottom)
}

// conditionsHold reports whether every CAS condition of the valid
// operation list ops holds on s. Reads observe s directly: keys within
// one transaction are distinct, so pre-state and sequential
// within-transaction semantics coincide.
func conditionsHold(s State, ops string) bool {
	for rest, more := ops, true; more; {
		var op txnOp
		op, rest, more, _ = cutTxnOp(rest)
		if op.kind == 'c' && kvGet(s, op.key) != op.expect {
			return false
		}
	}
	return true
}

// kvPair is one key and the value written to it.
type kvPair struct{ k, v string }

// kvWrite returns s with the distinct-key pairs of ws written over it:
// the same state when no value changes, otherwise a new one built in one
// allocation. ws is sorted by key in place.
func kvWrite(s State, ws []kvPair) State {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].k < ws[j-1].k; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	size, changed := kvMerge(nil, s, ws)
	if !changed {
		return s
	}
	var b strings.Builder
	b.Grow(size)
	kvMerge(&b, s, ws)
	return State(b.String())
}

// kvMerge merges the pairs of s with the sorted pairs ws, a written key's
// value replacing its old one, into b (when not nil), and returns the
// merged state's length and whether it differs from s.
func kvMerge(b *strings.Builder, s State, ws []kvPair) (size int, changed bool) {
	put := func(k, v string) {
		if size > 0 {
			size++
			if b != nil {
				b.WriteString(TxnOpSep)
			}
		}
		size += len(k) + len(TxnFieldSep) + len(v)
		if b != nil {
			b.WriteString(k)
			b.WriteString(TxnFieldSep)
			b.WriteString(v)
		}
	}
	for rest, more := string(s), s != ""; more; {
		var pair string
		pair, rest, more = strings.Cut(rest, TxnOpSep)
		k, v, _ := strings.Cut(pair, TxnFieldSep)
		for ; len(ws) > 0 && ws[0].k < k; ws = ws[1:] {
			put(ws[0].k, ws[0].v)
			changed = true
		}
		if len(ws) > 0 && ws[0].k == k {
			changed = changed || ws[0].v != v
			v, ws = ws[0].v, ws[1:]
		}
		put(k, v)
	}
	for _, w := range ws {
		put(w.k, w.v)
		changed = true
	}
	return size, changed
}

// Empty implements Folder: the empty map.
func (TxnKV) Empty() State { return "" }

// Step implements Folder.
func (TxnKV) Step(s State, in trace.Value) State {
	op, arg, _ := split2(Untag(in))
	switch op {
	case "w":
		k, v, ok := strings.Cut(arg, TxnFieldSep)
		if !ok {
			return s
		}
		return kvWrite(s, []kvPair{{k, v}})
	case "t":
		if !txnOpsValid(arg) || !conditionsHold(s, arg) {
			return s
		}
		var buf [8]kvPair
		ws := buf[:0]
		for rest, more := arg, true; more; {
			var o txnOp
			o, rest, more, _ = cutTxnOp(rest)
			if o.kind == 'w' || o.kind == 'c' {
				ws = append(ws, kvPair{o.key, o.val})
			}
		}
		return kvWrite(s, ws)
	}
	return s // reads and "n:" no-ops
}

// Out implements Folder.
func (TxnKV) Out(s State, in trace.Value) trace.Value {
	op, arg, _ := split2(Untag(in))
	switch op {
	case "w":
		return WriteOutput()
	case "r":
		return ReadOutput(trace.Value(kvGet(s, arg)))
	case "t":
		if !txnOpsValid(arg) || !conditionsHold(s, arg) {
			return TxnAbortOutput()
		}
		return txnReads(s, arg)
	}
	return TxnAbortOutput() // "n:"
}

// txnReads returns the commit output of the valid operation list ops on
// s: "c:" and the read values in operation order, built in one
// allocation (none without reads).
func txnReads(s State, ops string) trace.Value {
	size, reads := len("c:"), 0
	for rest, more := ops, true; more; {
		var op txnOp
		op, rest, more, _ = cutTxnOp(rest)
		if op.kind == 'r' {
			size += len(kvGet(s, op.key))
			reads++
		}
	}
	if reads == 0 {
		return TxnCommitOutput(nil)
	}
	var b strings.Builder
	b.Grow(size + (reads-1)*len(TxnFieldSep))
	b.WriteString("c:")
	reads = 0
	for rest, more := ops, true; more; {
		var op txnOp
		op, rest, more, _ = cutTxnOp(rest)
		if op.kind == 'r' {
			if reads > 0 {
				b.WriteString(TxnFieldSep)
			}
			b.WriteString(kvGet(s, op.key))
			reads++
		}
	}
	return trace.Value(b.String())
}

// Apply implements ADT.
func (t TxnKV) Apply(h trace.History) (trace.Value, error) {
	return ApplyFolded(t, h)
}
