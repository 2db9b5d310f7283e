package keyed

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// write is the input of one register write on key, by a client named
// after the key.
func write(key string, i int) trace.Value {
	return adt.WriteInput(trace.Value(key + strconv.Itoa(i)))
}

// feedWrites invokes and answers n sequential writes on key, numbered
// from first.
func feedWrites(s *Set, key string, first, n int) {
	for i := first; i < first+n; i++ {
		s.Respond(s.Invoke(key, trace.ClientID(key), write(key, i)), adt.WriteOutput())
	}
}

// registers opens register fast-path sessions, the first n under a
// context that is already cancelled, and counts what it opened.
func registers(n int, opened *[]bool) func(bool) *lin.Session {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	return func(joined bool) *lin.Session {
		*opened = append(*opened, joined)
		ctx := context.Background()
		if len(*opened) <= n {
			ctx = dead
		}
		return lin.NewSession(ctx, adt.Register{}, check.WithWitness(false))
	}
}

// A history's first error is terminal for it alone: its session is never
// reopened, its error is what the report says, and the other keys keep
// checking. (Mutant: the terminal guard in live dropped — the dead
// history reopens, and a response without its invocation reads as
// NotLinearizable.)
func TestFirstErrorIsTerminal(t *testing.T) {
	var opened []bool
	s := New(Policy{Sessions: true}, registers(1, &opened))
	feedWrites(s, "a", 0, 1)
	feedWrites(s, "b", 0, 3)
	feedWrites(s, "a", 1, 2)
	rep := s.Report()
	if len(opened) != 2 {
		t.Fatalf("%d sessions opened for two keys", len(opened))
	}
	if rep.Verdict != check.Unknown || rep.Key != "a" || !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("report %v on %q (%v), want Unknown on \"a\" with its first error", rep.Verdict, rep.Key, rep.Err)
	}
	if rep.Actions != 12 || rep.Ops != 6 || rep.Nodes != 6 {
		t.Fatalf("%d actions, %d ops, %d nodes: want 12, 6 and b's 6", rep.Actions, rep.Ops, rep.Nodes)
	}
}

// Join before the first feed routes every key of a component into one
// history, opened as joined and named by its root, however long the
// chain to the root. (Mutants: the join ignored on a first feed, so a
// joined key opens its own plain session; the root resolved one step
// short.)
func TestJoinBeforeFeed(t *testing.T) {
	var opened []bool
	s := New(Policy{Sessions: true, Retain: true}, registers(0, &opened))
	s.Join("a", "b")
	s.Join("c", "d")
	s.Join("d", "a") // b → a → c
	for _, k := range []string{"b", "e", "a", "d", "c"} {
		feedWrites(s, k, 0, 1)
	}
	rep := s.Report()
	if len(opened) != 2 || !opened[0] || opened[1] {
		t.Fatalf("sessions opened joined=%v, want [true false]", opened)
	}
	if rep.Verdict != check.Linearizable || rep.Histories != 2 || rep.Components != 1 || rep.ComponentOps != 4 ||
		rep.JoinedKeys != 4 {
		t.Fatalf("report %+v: want one 4-key component and one plain key", rep)
	}
	if !s.Joined("b") || s.Joined("e") {
		t.Fatal("Joined disagrees with the joins")
	}
	var roots []string
	s.Traces(func(key string, joined bool, tr trace.Trace) {
		roots = append(roots, key)
		if joined != (key == "c") || joined && len(tr) != 8 {
			t.Fatalf("history %q (joined %v) holds %d actions", key, joined, len(tr))
		}
	})
	if len(roots) != 2 || roots[0] != "c" {
		t.Fatalf("histories %q, want the component first, named by its root", roots)
	}
}

// A join after either component's first feed panics: the history it
// would split is already being checked. (Mutant: the fed check dropped.)
func TestJoinAfterFeedPanics(t *testing.T) {
	for name, join := range map[string]func(s *Set){
		"plain key": func(s *Set) { s.Join("x", "y") },
		"component": func(s *Set) { s.Join("b", "z") },
	} {
		s := New(Policy{Retain: true}, nil)
		s.Join("a", "b")
		feedWrites(s, "x", 0, 1)
		feedWrites(s, "a", 0, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a join after a first feed did not panic", name)
				}
			}()
			join(s)
		}()
	}
}

// A trace is kept exactly when the policy retains, and a session is
// opened exactly when it streams. (Mutant: a sessions-on set appends
// anyway.)
func TestRetainPolicy(t *testing.T) {
	for _, pol := range []Policy{{Sessions: true}, {Sessions: true, Retain: true}, {Retain: true}} {
		var opened []bool
		s := New(pol, registers(0, &opened))
		feedWrites(s, "a", 0, 3)
		feedWrites(s, "b", 0, 2)
		for _, h := range s.hist {
			if got := h.tr != nil; got != pol.Retain || pol.Retain && len(h.tr) != int(2*h.ops) {
				t.Fatalf("%+v: history %q keeps %d of %d actions (cap %d)", pol, h.key, len(h.tr), 2*h.ops, cap(h.tr))
			}
			if (h.sess != nil) != pol.Sessions {
				t.Fatalf("%+v: history %q has session %v", pol, h.key, h.sess)
			}
		}
	}
}

// scripted decides a history one-shot by its client: the script's entry,
// or linearizable in one node an action.
func scripted(script map[trace.ClientID]error) func(trace.Trace, bool) (lin.Result, error) {
	return func(t trace.Trace, _ bool) (lin.Result, error) {
		err := script[t[0].Client]
		var reason *notLin
		if errors.As(err, &reason) {
			return lin.Result{Reason: string(*reason), Nodes: len(t)}, nil
		}
		return lin.Result{OK: err == nil, Nodes: len(t)}, err
	}
}

type notLin string

func (r *notLin) Error() string { return string(*r) }

func refute(reason string) error { r := notLin(reason); return &r }

// The report names the first NotLinearizable history in first-seen
// order, else the first Unknown one, and totals every history, failing
// ones included. (Mutants: a later failure overrides an earlier one;
// Unknown overrides NotLinearizable; a history's Unknown dropped.)
func TestReportPrecedence(t *testing.T) {
	budget, late := errors.New("budget"), errors.New("late")
	for _, tc := range []struct {
		name        string
		script      map[trace.ClientID]error
		verdict     check.Verdict
		key, reason string
		err         error
	}{
		{"refuted beats unknown", map[trace.ClientID]error{"k2": budget, "k3": refute("r3"), "k4": refute("r4"), "k5": late},
			check.NotLinearizable, "k3", "r3", nil},
		{"first unknown", map[trace.ClientID]error{"k2": budget, "k5": late}, check.Unknown, "k2", "budget", budget},
		{"clean", nil, check.Linearizable, "", "", nil},
	} {
		s := New(Policy{Retain: true}, nil)
		for i := 1; i <= 5; i++ {
			feedWrites(s, "k"+strconv.Itoa(i), 0, i)
		}
		rep := s.Check(context.Background(), 2, scripted(tc.script))
		if rep.Verdict != tc.verdict || rep.Key != tc.key || rep.Reason != tc.reason || rep.Err != tc.err {
			t.Fatalf("%s: %v on %q (%q, %v), want %v on %q (%q, %v)", tc.name,
				rep.Verdict, rep.Key, rep.Reason, rep.Err, tc.verdict, tc.key, tc.reason, tc.err)
		}
		if rep.Nodes != 30 || rep.Histories != 5 {
			t.Fatalf("%s: %d nodes over %d histories, want every history's: 30 over 5", tc.name, rep.Nodes, rep.Histories)
		}
	}
	// A cancelled pass decides nothing: every history is Unknown.
	s := New(Policy{Retain: true}, nil)
	feedWrites(s, "k1", 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep := s.Check(ctx, 1, scripted(nil)); rep.Verdict != check.Unknown || !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("cancelled pass: %v (%v)", rep.Verdict, rep.Err)
	}
}

// The totals: histories, actions, responses, nodes — a dead session's
// included — and the component counts. (Mutants: invocations counted as
// operations; a dead session's nodes dropped.)
func TestReportTotals(t *testing.T) {
	var opened []bool
	s := New(Policy{Sessions: true}, registers(0, &opened))
	s.Join("a", "b")
	feedWrites(s, "a", 0, 2)
	feedWrites(s, "b", 0, 1)
	feedWrites(s, "c", 0, 3)
	s.Invoke("c", "c", write("c", 9)) // left open
	// d dies after two operations: its session's nodes still count.
	ctx, cancel := context.WithCancel(context.Background())
	s.open = func(bool) *lin.Session { return lin.NewSession(ctx, adt.Register{}, check.WithWitness(false)) }
	feedWrites(s, "d", 0, 2)
	cancel()
	feedWrites(s, "d", 2, 1)
	rep := s.Report()
	want := Report{Verdict: check.Unknown, Key: "d", Histories: 3, Actions: 19, Ops: 9, Nodes: 17,
		Components: 1, ComponentOps: 3, LargestComponent: 3, JoinedKeys: 2}
	rep.Reason, rep.Err, rep.Wall = "", nil, 0
	if rep != want {
		t.Fatalf("report\n%+v, want\n%+v", rep, want)
	}
}

// An operation on a key that already has a history allocates nothing (a
// retained trace within its capacity: 301 actions grow it to at least
// 512), and a set with no joins never touches the union-find (it has
// none: a lookup would dereference nil).
func TestFeedAllocatesNothing(t *testing.T) {
	s := New(Policy{Retain: true}, nil)
	in, out := write("k", 0), adt.WriteOutput()
	op := s.Invoke("k", "k", in)
	for i := 0; i < 150; i++ {
		s.Respond(op, out)
		op = s.Invoke("k", "k", in)
	}
	if n := testing.AllocsPerRun(100, func() { s.Respond(op, out); op = s.Invoke("k", "k", in) }); n != 0 {
		t.Fatalf("%.1f allocations per operation on a known key", n)
	}
	for i := 0; i < 100; i++ {
		feedWrites(s, "k"+strconv.Itoa(i), 0, 1)
	}
	if s.uf != nil || s.Joined("k") {
		t.Fatal("a set with no joins built a union-find")
	}
}

// The operation path (DESIGN.md, decision 37) records what it is
// handed: interleaved operations on three keys, invoked and answered
// through their handles, leave in each key's retained trace exactly its
// operations' actions, and the live sessions' report equals the one-shot
// pass over those traces — the first key's history refused, since one of
// its reads returns a value never written. An action Malformed reports
// makes its key's history, and only it, not well-formed. (Mutant:
// Respond feeds the history next to the handle's.)
func TestOpsEqualFeed(t *testing.T) {
	var opened []bool
	s := New(Policy{Sessions: true, Retain: true}, registers(0, &opened))
	keys := []string{"a", "b", "c"}
	last := []trace.Value{adt.Bottom, adt.Bottom, adt.Bottom}
	want := make([]trace.Trace, len(keys))
	for i := 0; i < 30; i++ {
		var answers []func()
		for j, key := range keys {
			c := trace.ClientID(key)
			in := adt.Tag(adt.ReadInput(), strconv.Itoa(i))
			out := adt.ReadOutput(last[j])
			if (i+j)%2 == 0 {
				last[j] = trace.Value(key + strconv.Itoa(i))
				in, out = adt.WriteInput(last[j]), adt.WriteOutput()
			}
			if key == "a" && i == 7 {
				out = adt.ReadOutput("never")
			}
			op := s.Invoke(key, c, in)
			want[j] = append(want[j], trace.Invoke(c, 1, in))
			answers = append(answers, func() {
				s.Respond(op, out)
				want[j] = append(want[j], trace.Response(c, 1, in, out))
			})
		}
		for j := len(answers) - 1; j >= 0; j-- { // every key's operation overlaps the others'
			answers[j]()
		}
	}
	rep := s.Report()
	if rep.Verdict != check.NotLinearizable || rep.Key != "a" || rep.Histories != 3 || rep.Nodes != 180 {
		t.Fatalf("report %+v, want key a refused, 180 nodes", rep)
	}
	for _, h := range s.hist[1:] {
		if r, err := h.sess.Result(); !r.OK || err != nil {
			t.Fatalf("key %s: %+v, %v; want linearizable", h.key, r, err)
		}
	}
	s.Traces(func(key string, _ bool, tr trace.Trace) {
		if j := slices.Index(keys, key); !slices.Equal(want[j], tr) {
			t.Fatalf("key %s retains %d actions, not the %d of its operations", key, len(tr), len(want[j]))
		}
	})
	oneShot := s.Check(context.Background(), 1, func(tr trace.Trace, _ bool) (lin.Result, error) {
		return lin.Check(context.Background(), adt.Register{}, tr, check.WithWitness(false))
	})
	if rep != oneShot {
		t.Fatalf("live %+v, one-shot %+v", rep, oneShot)
	}

	s = New(Policy{Sessions: true}, registers(0, &opened))
	feedWrites(s, "b", 0, 2)
	in := adt.WriteInput("x")
	s.Malformed("c", trace.Response("c", 1, in, adt.WriteOutput()))
	feedWrites(s, "c", 0, 2)
	rep = s.Report()
	if rep.Verdict != check.NotLinearizable || rep.Key != "c" || rep.Reason != "trace is not well-formed" ||
		rep.Actions != 9 || rep.Ops != 5 || rep.Nodes != 4 {
		t.Fatalf("report %+v, want c not well-formed after b's 4 nodes", rep)
	}
}
