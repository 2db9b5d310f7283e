package adt

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestTxnKVSinglesAndState(t *testing.T) {
	kv := TxnKV{}
	if got, _ := kv.Apply(trace.History{TxnReadInput("x")}); got != ReadOutput(Bottom) {
		t.Fatalf("read of empty map = %q", got)
	}
	h := trace.History{TxnWriteInput("x", "1"), TxnWriteInput("y", "2"), TxnReadInput("x")}
	if got, _ := kv.Apply(h); got != ReadOutput("1") {
		t.Fatalf("read after writes = %q", got)
	}
	// State encoding is canonical: write order must not matter.
	a := Fold(kv, trace.History{TxnWriteInput("x", "1"), TxnWriteInput("y", "2")})
	b := Fold(kv, trace.History{TxnWriteInput("y", "2"), TxnWriteInput("x", "1")})
	if a != b {
		t.Fatalf("states differ for permuted writes: %q vs %q", a, b)
	}
}

func TestTxnKVTransactions(t *testing.T) {
	kv := TxnKV{}
	put := TxnInput([]string{TxnOpWrite("x", "1"), TxnOpWrite("y", "2")}, false)
	getBoth := TxnInput([]string{TxnOpRead("x"), TxnOpRead("y")}, false)

	// MultiPut commits with no reads; MultiGet sees both its writes.
	if got, _ := kv.Apply(trace.History{put}); got != TxnCommitOutput(nil) {
		t.Fatalf("multiput output = %q", got)
	}
	if got, _ := kv.Apply(trace.History{put, getBoth}); got != TxnCommitOutput([]trace.Value{"1", "2"}) {
		t.Fatalf("multiget output = %q", got)
	}

	// CAS commits when its condition holds (including expecting ⊥ on an
	// unset key), aborts — applying nothing — when it does not.
	casFresh := TxnInput([]string{TxnOpCAS("z", Bottom, "9"), TxnOpRead("x")}, false)
	if got, _ := kv.Apply(trace.History{put, casFresh}); got != TxnCommitOutput([]trace.Value{"1"}) {
		t.Fatalf("fresh CAS output = %q", got)
	}
	casStale := TxnInput([]string{TxnOpCAS("x", "0", "7")}, false)
	if got, _ := kv.Apply(trace.History{put, casStale}); got != TxnAbortOutput() {
		t.Fatalf("stale CAS output = %q", got)
	}
	if got, _ := kv.Apply(trace.History{put, casStale, TxnReadInput("x")}); got != ReadOutput("1") {
		t.Fatalf("aborted CAS leaked a write: read = %q", got)
	}

	// "n:" no-op transactions always abort and never have an effect.
	noop := TxnInput([]string{TxnOpWrite("x", "666")}, true)
	if got, _ := kv.Apply(trace.History{put, noop}); got != TxnAbortOutput() {
		t.Fatalf("no-op txn output = %q", got)
	}
	if s := Fold(kv, trace.History{put, noop}); s != Fold(kv, trace.History{put}) {
		t.Fatalf("no-op txn changed state: %q", s)
	}

	// Occurrence tags are transparent.
	if got, _ := kv.Apply(trace.History{Tag(put, "t1"), Tag(getBoth, "t2")}); got != TxnCommitOutput([]trace.Value{"1", "2"}) {
		t.Fatalf("tagged txn output = %q", got)
	}
}

func TestTxnKVValidInput(t *testing.T) {
	kv := TxnKV{}
	for _, good := range []trace.Value{
		TxnWriteInput("x", "1"),
		TxnReadInput("x"),
		TxnInput([]string{TxnOpRead("x")}, false),
		TxnInput([]string{TxnOpCAS("x", Bottom, "1"), TxnOpWrite("y", "2")}, true),
		Tag(TxnReadInput("x"), "q"),
	} {
		if !kv.ValidInput(good) {
			t.Errorf("ValidInput(%q) = false", good)
		}
	}
	for _, bad := range []trace.Value{
		"", "r:", "w:x", "t:", "n:", "q:x",
		TxnInput([]string{TxnOpRead("x"), TxnOpWrite("x", "1")}, false), // duplicate key
		TxnInput([]string{"z" + TxnFieldSep + "x"}, false),
		"w:k" + TxnFieldSep + "a" + TxnOpSep + "b" + TxnFieldSep + "z", // would write pairs k and b
		"w:k" + TxnOpSep + "j" + TxnFieldSep + "1",
		"r:k" + TxnOpSep + "j",
	} {
		if kv.ValidInput(bad) {
			t.Errorf("ValidInput(%q) = true", bad)
		}
	}
}

// kvState, decodeKV, parseTxnOps and the mapTxn* functions are the map
// codec TxnKV's in-place one replaced, kept as its oracle: decode the
// whole state into a map, split the operations apart, sort and re-encode.
type kvState map[string]string

func decodeKV(s State) kvState {
	m := kvState{}
	if s == "" {
		return m
	}
	for _, pair := range strings.Split(string(s), TxnOpSep) {
		k, v, ok := strings.Cut(pair, TxnFieldSep)
		if ok {
			m[k] = v
		}
	}
	return m
}

func (m kvState) encode() State {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(TxnOpSep)
		}
		b.WriteString(k)
		b.WriteString(TxnFieldSep)
		b.WriteString(m[k])
	}
	return State(b.String())
}

func (m kvState) get(k string) string {
	if v, ok := m[k]; ok {
		return v
	}
	return string(Bottom)
}

func (m kvState) conditionsHold(ops []txnOp) bool {
	for _, op := range ops {
		if op.kind == 'c' && m.get(op.key) != op.expect {
			return false
		}
	}
	return true
}

func parseTxnOps(enc string) ([]txnOp, bool) {
	if enc == "" {
		return nil, false
	}
	parts := strings.Split(enc, TxnOpSep)
	ops := make([]txnOp, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		fs := strings.Split(p, TxnFieldSep)
		var op txnOp
		switch {
		case len(fs) == 2 && fs[0] == "r":
			op = txnOp{kind: 'r', key: fs[1]}
		case len(fs) == 3 && fs[0] == "w":
			op = txnOp{kind: 'w', key: fs[1], val: fs[2]}
		case len(fs) == 4 && fs[0] == "c":
			op = txnOp{kind: 'c', key: fs[1], expect: fs[2], val: fs[3]}
		default:
			return nil, false
		}
		if op.key == "" || seen[op.key] {
			return nil, false
		}
		seen[op.key] = true
		ops = append(ops, op)
	}
	return ops, true
}

func mapTxnValid(in trace.Value) bool {
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
		_, ok := parseTxnOps(arg)
		return ok
	}
	return false
}

func mapTxnStep(s State, in trace.Value) State {
	op, arg, _ := split2(Untag(in))
	switch op {
	case "w":
		k, v, ok := strings.Cut(arg, TxnFieldSep)
		if !ok {
			return s
		}
		m := decodeKV(s)
		m[k] = v
		return m.encode()
	case "t":
		ops, ok := parseTxnOps(arg)
		if !ok {
			return s
		}
		m := decodeKV(s)
		if !m.conditionsHold(ops) {
			return s
		}
		for _, o := range ops {
			if o.kind == 'w' || o.kind == 'c' {
				m[o.key] = o.val
			}
		}
		return m.encode()
	}
	return s
}

func mapTxnOut(s State, in trace.Value) trace.Value {
	op, arg, _ := split2(Untag(in))
	switch op {
	case "w":
		return WriteOutput()
	case "r":
		return ReadOutput(trace.Value(decodeKV(s).get(arg)))
	case "t":
		ops, ok := parseTxnOps(arg)
		if !ok {
			return TxnAbortOutput()
		}
		m := decodeKV(s)
		if !m.conditionsHold(ops) {
			return TxnAbortOutput()
		}
		var reads []trace.Value
		for _, o := range ops {
			if o.kind == 'r' {
				reads = append(reads, trace.Value(m.get(o.key)))
			}
		}
		return TxnCommitOutput(reads)
	}
	return TxnAbortOutput()
}

// randTxnKVInput draws a TxnKV input, often malformed: empty and
// duplicate keys, missing and extra fields, a trailing or doubled
// TxnOpSep, unknown kinds and prefixes, tagged or not. sep reports a
// single-key input whose key or value holds TxnOpSep, which ValidInput
// must refuse: stepped, it would write a state whose pairs read back
// wrong.
func randTxnKVInput(r *rand.Rand) (in trace.Value, sep bool) {
	keys := []string{"a", "b", "c", "d", "ab", ""}
	vals := []string{"1", "2", "x", string(Bottom), ""}
	key := func() string { return keys[r.Intn(len(keys))] }
	val := func() string { return vals[r.Intn(len(vals))] }
	switch r.Intn(9) {
	case 8:
		inner := key() + TxnOpSep + key()
		switch r.Intn(3) {
		case 0:
			in = TxnWriteInput(inner, trace.Value(val()))
		case 1:
			in = TxnWriteInput(key(), trace.Value(val()+TxnOpSep+inner+TxnFieldSep+val()))
		default:
			in = TxnReadInput(inner)
		}
		sep = true
	case 0:
		in = TxnWriteInput(key(), trace.Value(val()))
		switch r.Intn(4) {
		case 0:
			in += TxnFieldSep + "extra"
		case 1:
			in = "w:" + key()
		}
	case 1:
		in = TxnReadInput(key())
		if r.Intn(4) == 0 {
			in += TxnFieldSep + "extra"
		}
	case 2:
		in = [...]trace.Value{"", "q:x", "r", "w", "t", "t:", "n:", ":", "w:" + TxnFieldSep}[r.Intn(9)]
	default:
		var ops, used []string
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			k := key()
			if len(used) > 0 && r.Intn(4) == 0 {
				k = used[r.Intn(len(used))] // a duplicate key
			}
			used = append(used, k)
			var op string
			switch r.Intn(3) {
			case 0:
				op = TxnOpRead(k)
			case 1:
				op = TxnOpWrite(k, trace.Value(val()))
			default:
				op = TxnOpCAS(k, trace.Value(val()), trace.Value(val()))
			}
			switch r.Intn(10) {
			case 0:
				op = op[:strings.LastIndex(op, TxnFieldSep)] // a field missing
			case 1:
				op += TxnFieldSep + val() // a field too many
			case 2:
				op = "z" + op[1:] // an unknown kind
			case 3:
				op = "" // an empty operation
			}
			ops = append(ops, op)
		}
		in = TxnInput(ops, r.Intn(4) == 0)
		if r.Intn(10) == 0 {
			in += TxnOpSep // a trailing separator
		}
	}
	if r.Intn(2) == 0 {
		in = Tag(in, "t7")
	}
	return in, sep
}

// TestTxnKVMatchesMapCodec: on random walks from random states, the
// in-place codec answers ValidInput, Out and Step exactly as the map
// codec does, state bytes included, on well-formed and malformed inputs.
func TestTxnKVMatchesMapCodec(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	kv := TxnKV{}
	valid, changed, refused := 0, 0, 0
	for walk := 0; walk < 400; walk++ {
		m := kvState{}
		for i, n := 0, r.Intn(6); i < n; i++ {
			m[[]string{"a", "b", "c", "d", "ab", "", "e"}[r.Intn(7)]] = []string{"1", "2", "", "x" + TxnFieldSep + "y"}[r.Intn(4)]
		}
		s := m.encode()
		for step := 0; step < 40; step++ {
			in, sep := randTxnKVInput(r)
			if sep {
				if kv.ValidInput(in) || mapTxnValid(in) {
					t.Fatalf("ValidInput(%q) = true, want a TxnOpSep inside a key or value refused", in)
				}
				refused++
				continue
			}
			if got, want := kv.ValidInput(in), mapTxnValid(in); got != want {
				t.Fatalf("ValidInput(%q) = %v, want %v", in, got, want)
			} else if got {
				valid++
			}
			if got, want := kv.Out(s, in), mapTxnOut(s, in); got != want {
				t.Fatalf("Out(%q, %q) = %q, want %q", s, in, got, want)
			}
			want := mapTxnStep(s, in)
			if got := kv.Step(s, in); got != want {
				t.Fatalf("Step(%q, %q) = %q, want %q", s, in, got, want)
			}
			if want != s {
				changed++
			}
			s = want
		}
	}
	t.Logf("%d valid inputs, %d state changes and %d inner separators refused in 16000 steps", valid, changed, refused)
	if valid < 3000 || changed < 1500 || refused < 1000 {
		t.Fatalf("walks too thin: %d valid inputs, %d state changes, %d refused", valid, changed, refused)
	}
}

// TestTxnKVCodecAllocs pins what the in-place codec costs: Out allocates
// only the output it returns, none for a constant one, and Step builds a
// changed state in one allocation and leaves an unchanged one alone.
func TestTxnKVCodecAllocs(t *testing.T) {
	kv := TxnKV{}
	s := Fold(kv, trace.History{TxnWriteInput("x", "1"), TxnWriteInput("y", "2"), TxnWriteInput("z", "3")})
	read := Tag(TxnReadInput("y"), "r")
	write := Tag(TxnWriteInput("w", "4"), "w")
	commit := Tag(TxnInput([]string{TxnOpRead("x"), TxnOpWrite("y", "9"), TxnOpCAS("z", "3", "8")}, false), "c")
	failedCAS := Tag(TxnInput([]string{TxnOpRead("x"), TxnOpCAS("z", "0", "8")}, false), "f")
	noop := Tag(TxnInput([]string{TxnOpWrite("x", "7")}, true), "n")
	if got := kv.Out(s, commit); got != TxnCommitOutput([]trace.Value{"1"}) {
		t.Fatalf("commit output %q", got)
	}
	for _, m := range []struct {
		name   string
		run    func()
		allocs float64
	}{
		{"out read", func() { _ = kv.Out(s, read) }, 1},
		{"out commit", func() { _ = kv.Out(s, commit) }, 1},
		{"out write", func() { _ = kv.Out(s, write) }, 0},
		{"out abort", func() { _ = kv.Out(s, failedCAS) }, 0},
		{"out no-op", func() { _ = kv.Out(s, noop) }, 0},
		{"step write", func() { _ = kv.Step(s, write) }, 1},
		{"step commit", func() { _ = kv.Step(s, commit) }, 1},
		{"step read", func() { _ = kv.Step(s, read) }, 0},
		{"step failed CAS", func() { _ = kv.Step(s, failedCAS) }, 0},
		{"step no-op", func() { _ = kv.Step(s, noop) }, 0},
	} {
		if got := testing.AllocsPerRun(100, m.run); got != m.allocs {
			t.Errorf("%s: %.0f allocations, want %.0f", m.name, got, m.allocs)
		}
	}
}
