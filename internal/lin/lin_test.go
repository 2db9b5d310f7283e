package lin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

func p(v string) trace.Value { return adt.ProposeInput(v) }
func d(v string) trace.Value { return adt.DecideOutput(v) }

func checkBoth(t *testing.T, f adt.Folder, tr trace.Trace) (newDef, classical bool) {
	t.Helper()
	r1, err := Check(context.Background(), f, tr, check.WithExact(true))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if r1.OK {
		if err := VerifyWitness(f, tr, r1.Witness); err != nil {
			t.Fatalf("checker produced invalid witness: %v", err)
		}
	}
	r2, err := CheckClassical(context.Background(), f, tr)
	if err != nil {
		t.Fatalf("CheckClassical: %v", err)
	}
	if r1.OK != r2.OK {
		t.Fatalf("definitions disagree (Theorem 1 violated): new=%v classical=%v on %v",
			r1.OK, r2.OK, tr)
	}
	return r1.OK, r2.OK
}

// The linearizable example of §2.2: c1 proposes v1, c2 proposes v2, c2
// decides v2, c1 decides v2. The history chain [p(v2)], [p(v2), p(v1)]
// witnesses it.
func TestSection22LinearizableExample(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v1")),
		trace.Invoke("c2", 1, p("v2")),
		trace.Response("c2", 1, p("v2"), d("v2")),
		trace.Response("c1", 1, p("v1"), d("v2")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); !ok {
		t.Fatal("the §2.2 example must be linearizable")
	}
}

// First non-linearizable example of §2.2: c1 proposes v1, c2 proposes v2,
// c1 decides v1, c2 decides v2 — two different decisions.
func TestSection22NonLinearizable1(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v1")),
		trace.Invoke("c2", 1, p("v2")),
		trace.Response("c1", 1, p("v1"), d("v1")),
		trace.Response("c2", 1, p("v2"), d("v2")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); ok {
		t.Fatal("split decisions must not be linearizable")
	}
}

// Second non-linearizable example of §2.2: c1 proposes v1 and decides v2
// before v2 was ever proposed.
func TestSection22NonLinearizable2(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v1")),
		trace.Response("c1", 1, p("v1"), d("v2")),
		trace.Invoke("c2", 1, p("v2")),
		trace.Response("c2", 1, p("v2"), d("v2")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); ok {
		t.Fatal("deciding a not-yet-proposed value must not be linearizable")
	}
}

// A later response may need a commit history shorter than an earlier one:
// c1 (proposing a) decides b before c2 (proposing b) decides b. The only
// witness assigns g(res c1) = [p(b), p(a)] and g(res c2) = [p(b)], with
// commit histories out of trace order.
func TestShorterCommitAfterLonger(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Invoke("c2", 1, p("b")),
		trace.Response("c1", 1, p("a"), d("b")),
		trace.Response("c2", 1, p("b"), d("b")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); !ok {
		t.Fatal("out-of-order commit lengths must be found")
	}
}

func TestSequentialTraces(t *testing.T) {
	// Sequential executions of Figure 1: first proposal decided by all.
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("x")),
		trace.Response("c1", 1, p("x"), d("x")),
		trace.Invoke("c2", 1, p("y")),
		trace.Response("c2", 1, p("y"), d("x")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); !ok {
		t.Fatal("sequential spec-following trace must be linearizable")
	}
	// A sequential trace violating the spec.
	bad := trace.Trace{
		trace.Invoke("c1", 1, p("x")),
		trace.Response("c1", 1, p("x"), d("x")),
		trace.Invoke("c2", 1, p("y")),
		trace.Response("c2", 1, p("y"), d("y")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, bad); ok {
		t.Fatal("second proposer deciding own value sequentially is wrong")
	}
}

func TestPendingInvocationsAllowed(t *testing.T) {
	// A pending proposal may be linearized to explain another's decision.
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Invoke("c2", 1, p("b")),
		trace.Response("c2", 1, p("b"), d("a")),
		// c1 never responds.
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); !ok {
		t.Fatal("pending invocation must be linearizable as a side effect")
	}
}

func TestRealTimeOrderRespected(t *testing.T) {
	// Non-overlapping register operations: a write completes, then a read
	// starts; the read must observe the write.
	w, r := adt.WriteInput("x"), adt.ReadInput()
	tr := trace.Trace{
		trace.Invoke("c1", 1, w),
		trace.Response("c1", 1, w, adt.WriteOutput()),
		trace.Invoke("c2", 1, r),
		trace.Response("c2", 1, r, adt.ReadOutput(adt.Bottom)),
	}
	if ok, _ := checkBoth(t, adt.Register{}, tr); ok {
		t.Fatal("read after completed write must not miss it")
	}
	tr[3] = trace.Response("c2", 1, r, adt.ReadOutput("x"))
	if ok, _ := checkBoth(t, adt.Register{}, tr); !ok {
		t.Fatal("read observing the completed write must be linearizable")
	}
}

func TestOverlappingRegisterOps(t *testing.T) {
	// Overlapping write and read: the read may see either old or new.
	w, r := adt.WriteInput("x"), adt.ReadInput()
	for _, out := range []trace.Value{adt.ReadOutput(adt.Bottom), adt.ReadOutput("x")} {
		tr := trace.Trace{
			trace.Invoke("c1", 1, w),
			trace.Invoke("c2", 1, r),
			trace.Response("c2", 1, r, out),
			trace.Response("c1", 1, w, adt.WriteOutput()),
		}
		if ok, _ := checkBoth(t, adt.Register{}, tr); !ok {
			t.Fatalf("overlapping read returning %q must be linearizable", out)
		}
	}
}

func TestQueueLinearizability(t *testing.T) {
	enqA, enqB, deq := adt.EnqInput("a"), adt.EnqInput("b"), adt.DeqInput()
	// Sequential enq a, enq b, then two dequeues must pop a then b.
	good := trace.Trace{
		trace.Invoke("c1", 1, enqA),
		trace.Response("c1", 1, enqA, adt.WriteOutput()),
		trace.Invoke("c1", 1, enqB),
		trace.Response("c1", 1, enqB, adt.WriteOutput()),
		trace.Invoke("c2", 1, deq),
		trace.Response("c2", 1, deq, adt.ReadOutput("a")),
		trace.Invoke("c2", 1, deq),
		trace.Response("c2", 1, deq, adt.ReadOutput("b")),
	}
	if ok, _ := checkBoth(t, adt.Queue{}, good); !ok {
		t.Fatal("FIFO trace must be linearizable")
	}
	// Popping b before a sequentially is not linearizable.
	bad := good.Clone()
	bad[5] = trace.Response("c2", 1, deq, adt.ReadOutput("b"))
	bad[7] = trace.Response("c2", 1, deq, adt.ReadOutput("a"))
	if ok, _ := checkBoth(t, adt.Queue{}, bad); ok {
		t.Fatal("LIFO pops of sequential enqueues must not be linearizable")
	}
}

// Repeated events: the same input invoked by two clients; each decision
// consumes its own occurrence (the paper: duplicates "are the norm in
// practice").
func TestRepeatedInputs(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v")),
		trace.Invoke("c2", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
		trace.Response("c2", 1, p("v"), d("v")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); !ok {
		t.Fatal("duplicate proposals deciding the common value must be linearizable")
	}
}

// Duplicate-sensitivity of Validity: a single invocation cannot justify
// two commit histories both ending in it at different lengths... it can,
// via the chain [p(v)] ⊂ [p(v), p(w)] where only the second ends with the
// other input. But two responses to ONE invocation are already ruled out
// by well-formedness; here we check a client re-invoking the same input.
func TestClientReinvokesSameInput(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
		trace.Invoke("c1", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
	}
	if ok, _ := checkBoth(t, adt.Consensus{}, tr); !ok {
		t.Fatal("re-invoking the same proposal must be linearizable")
	}
}

func TestNotWellFormedRejected(t *testing.T) {
	tr := trace.Trace{trace.Response("c1", 1, p("v"), d("v"))}
	r, err := Check(context.Background(), adt.Consensus{}, tr, check.WithExact(true))
	if err != nil || r.OK {
		t.Fatalf("ill-formed trace accepted: %+v, %v", r, err)
	}
	r, err = CheckClassical(context.Background(), adt.Consensus{}, tr)
	if err != nil || r.OK {
		t.Fatalf("ill-formed trace accepted by classical: %+v, %v", r, err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Invoke("c2", 1, p("b")),
		trace.Response("c1", 1, p("a"), d("a")),
		trace.Response("c2", 1, p("b"), d("a")),
	}
	// One-shot Check says where its session gave up, wrapping the sentinel.
	if _, err := Check(context.Background(), adt.Consensus{}, tr, check.WithBudget(1), check.WithExact(true)); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	res, err := CheckClassical(context.Background(), adt.Consensus{}, tr, check.WithBudget(1))
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget from classical, got %v", err)
	}
	if res.Nodes != 2 {
		t.Fatalf("classical reported %d nodes on budget exhaustion, want the 2 it spent", res.Nodes)
	}
}

// TestBudgetInterplay: exhausting the budget yields ErrBudget and no
// verdict, and a check fits in the budget of the most nodes one of its
// fed actions spends (DESIGN.md, decision 34), however many more it
// spends in all.
func TestBudgetInterplay(t *testing.T) {
	ctx := context.Background()
	tr := workload.SplitDecision(6, "p")
	full, err := Check(ctx, adt.Consensus{}, tr, check.WithExact(true))
	if err != nil || full.OK {
		t.Fatalf("split decisions gave %+v, %v", full, err)
	}
	peak, _ := feedPeak(t, adt.Consensus{}, tr)
	res, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(peak-1), check.WithExact(true))
	if !errors.Is(err, ErrBudget) || res.OK {
		t.Fatalf("budget %d gave %+v, %v; want ErrBudget, undecided", peak-1, res, err)
	}
	if res, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(peak), check.WithExact(true)); err != nil || res.OK || res.Nodes != full.Nodes || peak >= full.Nodes {
		t.Fatalf("budget %d gave %+v, %v; want the %d-node refutation", peak, res, err, full.Nodes)
	}
}

// TestCancellationUnderPOR: a cancelled context aborts the one-shot check
// and the session with the context error.
func TestCancellationUnderPOR(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := workload.SplitDecision(6, "p")
	if _, err := Check(ctx, adt.Consensus{}, tr, check.WithExact(true)); !errors.Is(err, context.Canceled) {
		t.Fatalf("one-shot: expected context.Canceled, got %v", err)
	}
	s := NewSession(ctx, adt.Consensus{}, check.WithExact(true))
	if err := s.FeedAll(tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("session: expected context.Canceled, got %v", err)
	}
	if v := s.Verdict(); v != check.Unknown {
		t.Fatalf("session verdict after cancel = %v, want Unknown", v)
	}
}

// TestClassicalUncappedUnderPOR: the classical checker is uncapped
// (decision 13): a 64-operation trace decides, and agrees with the
// new-definition checker (Theorem 1; unique inputs). The name is from
// when the test also toggled the retired reducer option.
func TestClassicalUncappedUnderPOR(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 64; i++ {
		c := trace.ClientID(fmt.Sprintf("c%d", i))
		in := adt.Tag(adt.IncInput(), fmt.Sprintf("%d", i))
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.CountOutput(i+1)))
	}
	if res, err := CheckClassical(context.Background(), adt.Counter{}, tr); err != nil || !res.OK {
		t.Fatalf("classical check on 64 sequential ops: %+v, %v", res, err)
	}
	if ok, err := Check(context.Background(), adt.Counter{}, tr); err != nil || !ok.OK {
		t.Fatalf("Check on 64 sequential ops: %+v, %v", ok, err)
	}
}

func TestWitnessVerifierCatchesBadWitnesses(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
	}
	cases := []struct {
		name string
		w    Witness
	}{
		{"missing entry", Witness{}},
		{"wrong output", Witness{1: trace.History{p("w")}}},
		{"does not end with input", Witness{1: trace.History{p("v"), p("v")}}},
		{"uses uninvoked input", Witness{1: trace.History{p("w"), p("v")}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := VerifyWitness(adt.Consensus{}, tr, tt.w); err == nil {
				t.Fatal("verifier accepted an invalid witness")
			}
		})
	}
}

func TestWitnessCommitOrderViolation(t *testing.T) {
	cases := []struct {
		name string
		tr   trace.Trace
		w    Witness
	}{
		{"incomparable, same length",
			trace.Trace{
				trace.Invoke("c1", 1, p("a")),
				trace.Invoke("c2", 1, p("b")),
				trace.Response("c1", 1, p("a"), d("a")),
				trace.Response("c2", 1, p("b"), d("b")),
			},
			Witness{2: {p("a")}, 3: {p("b")}}},
		{"two responses given the same history",
			trace.Trace{
				trace.Invoke("c1", 1, p("a")),
				trace.Invoke("c2", 1, p("a")),
				trace.Response("c1", 1, p("a"), d("a")),
				trace.Response("c2", 1, p("a"), d("a")),
			},
			Witness{2: {p("a")}, 3: {p("a")}}},
		{"different lengths diverging at position 0",
			trace.Trace{
				trace.Invoke("c1", 1, p("a")),
				trace.Invoke("c2", 1, p("b")),
				trace.Invoke("c3", 1, p("c")),
				trace.Response("c1", 1, p("a"), d("a")),
				trace.Response("c2", 1, p("b"), d("c")),
			},
			Witness{3: {p("a")}, 4: {p("c"), p("b")}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := VerifyWitness(adt.Consensus{}, tt.tr, tt.w); err == nil {
				t.Fatal("commit histories not totally ordered by strict prefix must be rejected")
			}
		})
	}
}

// commitOrderCase builds n overlapping register writes (values from a
// three-letter alphabet, so inputs repeat) and a witness whose commit
// histories all pass Explains and Validity: each is a sub-multiset of
// the invoked writes ending in its own. Only Commit-Order varies — a
// third of the histories drop or swap elements of the intended chain.
func commitOrderCase(r *rand.Rand) (trace.Trace, Witness) {
	n := 2 + r.Intn(5)
	ins := make([]trace.Value, n)
	var tr trace.Trace
	for i := range ins {
		ins[i] = adt.WriteInput(string(rune('x' + r.Intn(3))))
		tr = append(tr, trace.Invoke(trace.ClientID(fmt.Sprint("c", i)), 1, ins[i]))
	}
	chain := r.Perm(n)
	w := Witness{}
	for k, i := range chain {
		g := make(trace.History, 0, k+1)
		for _, j := range chain[:k] {
			g = append(g, ins[j])
		}
		switch r.Intn(6) {
		case 0:
			if len(g) > 0 {
				g = g[1:]
			}
		case 1:
			if len(g) > 1 {
				g[0], g[len(g)-1] = g[len(g)-1], g[0]
			}
		}
		w[len(tr)] = append(g, ins[i])
		tr = append(tr, trace.Response(trace.ClientID(fmt.Sprint("c", i)), 1, ins[i], adt.WriteOutput()))
	}
	return tr, w
}

// The sort-plus-adjacent Commit-Order check accepts and rejects exactly
// what Definition 12's pairwise statement does.
func TestWitnessCommitOrderAgreesWithPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	accepted, rejected := 0, 0
	for iter := 0; iter < 2000; iter++ {
		tr, w := commitOrderCase(r)
		want := true
		for i, gi := range w {
			for j, gj := range w {
				if i < j && !gi.IsStrictPrefixOf(gj) && !gj.IsStrictPrefixOf(gi) {
					want = false
				}
			}
		}
		err := VerifyWitness(adt.Register{}, tr, w)
		if (err == nil) != want {
			t.Fatalf("pairwise Commit-Order says %v, VerifyWitness says %v\ntrace: %v\nwitness: %v", want, err, tr, w)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("generator is one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

// A large fault-free consensus trace must check quickly (the greedy chain
// extension path): this guards against accidental exponential behavior on
// the common case.
func TestLargeAgreeingTrace(t *testing.T) {
	var tr trace.Trace
	n := 60
	tr = append(tr, trace.Invoke("c0", 1, p("w")))
	tr = append(tr, trace.Response("c0", 1, p("w"), d("w")))
	for i := 1; i < n; i++ {
		c := trace.ClientID("c" + string(rune('0'+i%10)) + "x" + string(rune('a'+i%26)))
		in := p("v" + string(rune('a'+i%26)))
		tr = append(tr, trace.Invoke(c, 1, in))
		tr = append(tr, trace.Response(c, 1, in, d("w")))
	}
	r, err := Check(context.Background(), adt.Consensus{}, tr, check.WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("agreeing trace must be linearizable")
	}
	if err := VerifyWitness(adt.Consensus{}, tr, r.Witness); err != nil {
		t.Fatal(err)
	}
}

// CheckClassical is uncapped (DESIGN.md, decision 13): a 64-operation
// trace — beyond the former uint64 bitmask cap — decides with a verdict,
// and search-budget exhaustion still reports ErrBudget.
func TestClassicalUncappedAndBudget(t *testing.T) {
	long := make(trace.Trace, 0, 128)
	for i := 0; i < 64; i++ {
		c := trace.ClientID(fmt.Sprintf("c%d", i))
		in := adt.Tag(adt.ProposeInput("v"), fmt.Sprintf("%d", i))
		long = append(long, trace.Invoke(c, 1, in))
		long = append(long, trace.Response(c, 1, in, adt.DecideOutput("v")))
	}
	res, err := CheckClassical(context.Background(), adt.Consensus{}, long)
	if err != nil {
		t.Fatalf("64-op trace: err = %v, want a verdict (the cap fell with decision 13)", err)
	}
	if !res.OK {
		t.Fatalf("sequential 64-op trace must be linearizable*: %+v", res)
	}
	if err := VerifySequential(adt.Consensus{}, long, res.Sequential); err != nil {
		t.Fatal(err)
	}
	// The same shape one operation shorter stays on the single-word fast
	// path and agrees.
	if res, err := CheckClassical(context.Background(), adt.Consensus{}, long[:63*2]); err != nil || !res.OK {
		t.Fatalf("63-op trace: %+v, %v", res, err)
	}
	// A representable but oversized search still reports ErrBudget.
	hard := make(trace.Trace, 0, 40)
	for i := 0; i < 20; i++ {
		c := trace.ClientID(fmt.Sprintf("h%d", i))
		in := adt.Tag(adt.ProposeInput(fmt.Sprintf("v%d", i)), fmt.Sprintf("%d", i))
		hard = append(hard, trace.Invoke(c, 1, in))
	}
	for i := 0; i < 20; i++ {
		c := trace.ClientID(fmt.Sprintf("h%d", i))
		in := adt.Tag(adt.ProposeInput(fmt.Sprintf("v%d", i)), fmt.Sprintf("%d", i))
		hard = append(hard, trace.Response(c, 1, in, adt.DecideOutput(fmt.Sprintf("v%d", i%2))))
	}
	_, err = CheckClassical(context.Background(), adt.Consensus{}, hard, check.WithBudget(50))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget: err = %v, want ErrBudget", err)
	}
}
