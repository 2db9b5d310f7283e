package slin

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

func p(v string) trace.Value { return adt.ProposeInput(v) }
func d(v string) trace.Value { return adt.DecideOutput(v) }

// mustCheck checks tr one-shot and through an online session fed it
// action by action — which must agree — and verifies every witness.
func mustCheck(t *testing.T, rinit RInit, m, n int, tr trace.Trace, opts ...check.Option) Result {
	t.Helper()
	r, err := Check(context.Background(), adt.Consensus{}, rinit, m, n, tr, opts...)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	s, err := NewSession(context.Background(), adt.Consensus{}, rinit, m, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedAll(tr); err != nil {
		t.Fatalf("session: %v", err)
	}
	online, err := s.Result()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if online.OK != r.OK {
		t.Fatalf("online session %v, Check %v on %v", online.OK, r.OK, tr)
	}
	temporal := check.NewSettings(opts...).TemporalAbortOrder
	for _, res := range []Result{r, online} {
		if res.OK && len(res.Witnesses) == 0 {
			t.Fatal("positive verdict without witnesses")
		}
		for _, w := range res.Witnesses {
			if err := VerifyWitness(adt.Consensus{}, rinit, m, n, tr, w, temporal); err != nil {
				t.Fatalf("checker produced an invalid witness: %v\ntrace: %v\nwitness: %+v", err, tr, w)
			}
		}
	}
	return r
}

// A fault-free contention-free Quorum-style trace: one client decides its
// own value; a second client decides the same value.
func TestFirstPhaseAllDecide(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
		trace.Invoke("c2", 1, p("w")),
		trace.Response("c2", 1, p("w"), d("v")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); !r.OK {
		t.Fatalf("all-decide trace must be SLin(1,2): %s", r.Reason)
	}
	if err := FirstPhaseInvariants(tr, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// §2.4: a decision followed by a timeout switch carrying the decided value.
func TestFirstPhaseDecideThenSwitch(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
		trace.Invoke("c2", 1, p("w")),
		trace.Switch("c2", 2, p("w"), "v"),
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); !r.OK {
		t.Fatalf("decide-then-switch trace must be SLin(1,2): %s", r.Reason)
	}
	if err := FirstPhaseInvariants(tr, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// I1 violation: a switch carries a value different from the decision. The
// checker must reject it (the abort history cannot both start with the
// switch value and extend the commit history).
func TestFirstPhaseSwitchValueMismatch(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("v")),
		trace.Response("c1", 1, p("v"), d("v")),
		trace.Invoke("c2", 1, p("w")),
		trace.Switch("c2", 2, p("w"), "w"),
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); r.OK {
		t.Fatal("switch value contradicting the decision must fail SLin")
	}
	if err := FirstPhaseInvariants(tr, 1, 2); err == nil {
		t.Fatal("I1 violation must be detected")
	}
}

// §2.4 contention: no client decides; both switch with their own proposals.
func TestFirstPhaseAllSwitch(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Invoke("c2", 1, p("b")),
		trace.Switch("c1", 2, p("a"), "a"),
		trace.Switch("c2", 2, p("b"), "b"),
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); !r.OK {
		t.Fatalf("all-switch contention trace must be SLin(1,2): %s", r.Reason)
	}
}

// A switch with a never-proposed value violates I3 and abort Validity.
func TestFirstPhaseSwitchUnproposedValue(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Switch("c1", 2, p("a"), "z"),
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); r.OK {
		t.Fatal("switching with an unproposed value must fail SLin")
	}
	if err := FirstPhaseInvariants(tr, 1, 2); err == nil {
		t.Fatal("I3 violation must be detected")
	}
}

// Second phase (Backup): clients switch in with a common value and decide it.
func TestSecondPhaseCommonValue(t *testing.T) {
	tr := trace.Trace{
		trace.Switch("c1", 2, p("x"), "v"),
		trace.Switch("c2", 2, p("y"), "v"),
		trace.Response("c1", 2, p("x"), d("v")),
		trace.Response("c2", 2, p("y"), d("v")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, tr); !r.OK {
		t.Fatalf("backup trace must be SLin(2,3): %s", r.Reason)
	}
	if err := SecondPhaseInvariants(tr, 2, 3); err != nil {
		t.Fatal(err)
	}
	// With probe representatives the check still passes (longer init
	// interpretations bring their own elements into ivi).
	if r := mustCheck(t, ConsensusRInit{Probe: true}, 2, 3, tr); !r.OK {
		t.Fatalf("backup trace must be SLin(2,3) under probe reps: %s", r.Reason)
	}
}

// Second phase with different switch values: the init LCP is empty and the
// phase may decide either submitted value.
func TestSecondPhaseMixedValues(t *testing.T) {
	for _, decide := range []string{"a", "b"} {
		tr := trace.Trace{
			trace.Switch("c1", 2, p("x"), "a"),
			trace.Switch("c2", 2, p("y"), "b"),
			trace.Response("c1", 2, p("x"), d(decide)),
			trace.Response("c2", 2, p("y"), d(decide)),
		}
		if r := mustCheck(t, ConsensusRInit{}, 2, 3, tr); !r.OK {
			t.Fatalf("backup deciding %q must be SLin(2,3): %s", decide, r.Reason)
		}
	}
}

// I4 violation: split decisions in the second phase.
func TestSecondPhaseSplitDecisions(t *testing.T) {
	tr := trace.Trace{
		trace.Switch("c1", 2, p("x"), "a"),
		trace.Switch("c2", 2, p("y"), "b"),
		trace.Response("c1", 2, p("x"), d("a")),
		trace.Response("c2", 2, p("y"), d("b")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, tr); r.OK {
		t.Fatal("split decisions must fail SLin(2,3)")
	}
	if err := SecondPhaseInvariants(tr, 2, 3); err == nil {
		t.Fatal("I4 violation must be detected")
	}
}

// I5 violation: deciding a value nobody switched in with.
func TestSecondPhaseUnsubmittedDecision(t *testing.T) {
	tr := trace.Trace{
		trace.Switch("c1", 2, p("x"), "a"),
		trace.Response("c1", 2, p("x"), d("z")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, tr); r.OK {
		t.Fatal("unsubmitted decision must fail SLin(2,3)")
	}
	if err := SecondPhaseInvariants(tr, 2, 3); err == nil {
		t.Fatal("I5 violation must be detected")
	}
}

// The §5.1 composition scenario with consensus values: both projections
// satisfy their phase properties and the composite satisfies SLin(1,3),
// with the interior switch ignored (Theorem 3 in the small).
func TestCompositionScenario(t *testing.T) {
	comp := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Response("c1", 1, p("a"), d("a")),
		trace.Invoke("c2", 1, p("b")),
		trace.Switch("c2", 2, p("b"), "a"),
		trace.Response("c2", 2, p("b"), d("a")),
	}
	first := comp.ProjectSig(1, 2)
	second := comp.ProjectSig(2, 3)
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, first); !r.OK {
		t.Fatalf("first projection must be SLin(1,2): %s", r.Reason)
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, second); !r.OK {
		t.Fatalf("second projection must be SLin(2,3): %s", r.Reason)
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 3, comp); !r.OK {
		t.Fatalf("composite must be SLin(1,3): %s", r.Reason)
	}
}

// The literal-vs-temporal Abort-Order divergence (see Options): a client
// decides after another client switched, with the decider's proposal
// invoked after the switch. The paper's Quorum produces such traces and
// its §2.4 argument accepts them, but the literal Definitions 28+32 reject
// them (the abort history would need inputs not yet valid at the abort).
func TestAbortOrderDivergence(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Switch("c1", 2, p("a"), "a"),
		trace.Invoke("c2", 1, p("b")),
		trace.Response("c2", 1, p("b"), d("a")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); r.OK {
		t.Fatal("literal Abort-Order must reject post-switch commits over fresh inputs")
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr, check.WithTemporalAbortOrder(true)); !r.OK {
		t.Fatalf("temporal Abort-Order must accept the Quorum-style trace: %s", r.Reason)
	}
	// The paper's invariants hold on the trace either way.
	if err := FirstPhaseInvariants(tr, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// Under the literal Abort-Order a commit no abort history can cover — its
// history holds an input invoked after the abort — never enters the
// frontier: the verdict is known at that response, and the rest of the
// trace costs no search node, one-shot or online.
func TestLiteralAbortOrderPrunesEagerly(t *testing.T) {
	short := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Switch("c1", 2, p("a"), "a"),
		trace.Invoke("c2", 1, p("b")),
		trace.Response("c2", 1, p("b"), d("a")),
	}
	long := short.Clone()
	for i := 0; i < 10; i++ {
		c := trace.ClientID(fmt.Sprintf("t%d", i))
		in := adt.Tag(p(fmt.Sprintf("x%d", i)), string(c))
		long = append(long, trace.Invoke(c, 1, in), trace.Response(c, 1, in, d("a")))
	}
	nodes := func(tr trace.Trace) (oneShot, online int) {
		r := mustCheck(t, ConsensusRInit{}, 1, 2, tr)
		if r.OK {
			t.Fatalf("post-abort commit over a fresh input accepted: %v", tr)
		}
		s, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(tr); err != nil {
			t.Fatal(err)
		}
		if v := s.Verdict(); v != check.NotLinearizable {
			t.Fatalf("online verdict %v", v)
		}
		return r.Nodes, s.Nodes()
	}
	shortOne, shortOnline := nodes(short)
	longOne, longOnline := nodes(long)
	if longOne != shortOne || longOnline != shortOnline {
		t.Fatalf("the tail after a refuted commit cost nodes: one-shot %d → %d, online %d → %d",
			shortOne, longOne, shortOnline, longOnline)
	}
}

// Well-formedness gates the property.
func TestIllFormedRejected(t *testing.T) {
	tr := trace.Trace{
		trace.Switch("c1", 2, p("a"), "a"), // abort without a pending op
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); r.OK {
		t.Fatal("ill-formed trace accepted")
	}
	// Init action in a phase with m == 1 is also ill-formed.
	tr = trace.Trace{trace.Switch("c1", 1, p("a"), "a")}
	if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr); err != nil {
		t.Fatalf("signature validation should pass for swi phase 1: %v", err)
	}
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, tr); r.OK {
		t.Fatal("init action with m == 1 must be ill-formed")
	}
}

func TestActionOutsideSignature(t *testing.T) {
	tr := trace.Trace{trace.Invoke("c1", 3, p("a"))}
	if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr); err == nil {
		t.Fatal("action outside sig(1,2) must error")
	}
	if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 0, 2, trace.Trace{}); err == nil {
		t.Fatal("invalid phase range must error")
	}
}

// Theorem 2 in the small: on switch-free traces SLin(1,n) coincides with
// plain linearizability (package lin is cross-checked in the workload
// tests; here the degenerate cases).
func TestTheorem2SwitchFree(t *testing.T) {
	u := "u1"
	tr := trace.Trace{
		trace.Invoke("c1", 1, u),
		trace.Response("c1", 1, u, adt.HistoryOutput(trace.History{u})),
	}
	r, err := Check(context.Background(), adt.Universal{}, UniversalRInit{}, 1, 2, tr)
	if err != nil || !r.OK {
		t.Fatalf("switch-free universal trace must pass: %+v %v", r, err)
	}
	bad := trace.Trace{
		trace.Invoke("c1", 1, u),
		trace.Response("c1", 1, u, adt.HistoryOutput(trace.History{"phantom", u})),
	}
	r, err = Check(context.Background(), adt.Universal{}, UniversalRInit{}, 1, 2, bad)
	if err != nil || r.OK {
		t.Fatalf("phantom-input history must fail: %+v %v", r, err)
	}
}

// Universal-ADT second phase: a client switches in with an encoded history
// and the response must extend it (the §6 automaton's behavior).
func TestUniversalSecondPhase(t *testing.T) {
	initH := trace.History{"x"}
	tr := trace.Trace{
		trace.Switch("c1", 2, "y", EncodeHistory(initH)),
		trace.Response("c1", 2, "y", adt.HistoryOutput(trace.History{"x", "y"})),
	}
	r, err := Check(context.Background(), adt.Universal{}, UniversalRInit{}, 2, 3, tr)
	if err != nil || !r.OK {
		t.Fatalf("universal second phase must pass: %+v %v", r, err)
	}
	// Responding without the init prefix violates Init-Order.
	bad := trace.Trace{
		trace.Switch("c1", 2, "y", EncodeHistory(initH)),
		trace.Response("c1", 2, "y", adt.HistoryOutput(trace.History{"y"})),
	}
	r, err = Check(context.Background(), adt.Universal{}, UniversalRInit{}, 2, 3, bad)
	if err != nil || r.OK {
		t.Fatalf("dropping the init prefix must fail: %+v %v", r, err)
	}
}

// An abort in the second phase of a three-phase object: the phase both
// receives init actions (m=2) and emits abort actions (n=3).
func TestMiddlePhaseInitAndAbort(t *testing.T) {
	tr := trace.Trace{
		trace.Switch("c1", 2, p("x"), "v"), // init with value v
		trace.Switch("c1", 3, p("x"), "v"), // abort onward with v
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, tr); !r.OK {
		t.Fatalf("pass-through middle phase must be SLin(2,3): %s", r.Reason)
	}
	// Aborting with a different value than the only init value: the abort
	// history must start with w but extend L = [p(v)] strictly.
	bad := trace.Trace{
		trace.Switch("c1", 2, p("x"), "v"),
		trace.Switch("c1", 3, p("x"), "w"),
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, bad); r.OK {
		t.Fatal("abort value contradicting the init LCP must fail")
	}
}

func TestEmptyTrace(t *testing.T) {
	if r := mustCheck(t, ConsensusRInit{}, 1, 2, trace.Trace{}); !r.OK {
		t.Fatalf("empty trace must be SLin: %s", r.Reason)
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, trace.Trace{}); !r.OK {
		t.Fatalf("empty trace must be SLin(2,3): %s", r.Reason)
	}
}

// TestBudgetError: the response's expansion, which may linearize the
// other open proposal before its own, spends 2 nodes against a budget of
// 1 per fed action.
func TestBudgetError(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, p("a")),
		trace.Invoke("c2", 1, p("a")),
		trace.Response("c1", 1, p("a"), d("a")),
	}
	if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, check.WithBudget(1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

// Pending inputs transferred by init actions are available to commits: a
// client switches in and its pending input is consumed by its response.
func TestInitPendingInputAvailability(t *testing.T) {
	tr := trace.Trace{
		trace.Switch("c1", 2, p("w"), "v"),
		trace.Response("c1", 2, p("w"), d("v")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, tr); !r.OK {
		t.Fatalf("init pending input must be consumable: %s", r.Reason)
	}
}

// Max-union of init contributions (Definition 25): two clients switching
// in with the same pending input share ONE occurrence, so only one of them
// can be answered (a safety-only constraint mirroring the automaton's
// "not present in hist" guard). Both being answered requires two
// occurrences and must fail.
func TestIviMaxUnionCollapsesDuplicates(t *testing.T) {
	ok := trace.Trace{
		trace.Switch("c1", 2, p("w"), "v"),
		trace.Switch("c2", 2, p("w"), "v"),
		trace.Response("c1", 2, p("w"), d("v")),
	}
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, ok); !r.OK {
		t.Fatalf("single response must pass: %s", r.Reason)
	}
	bad := ok.Clone()
	bad = append(bad, trace.Response("c2", 2, p("w"), d("v")))
	if r := mustCheck(t, ConsensusRInit{}, 2, 3, bad); r.OK {
		t.Fatal("duplicate pending inputs collapse under max-union; both responses must fail")
	}
}
