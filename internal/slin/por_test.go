package slin

// Tests for the SLin side of the partial-order reduction (DESIGN.md,
// decision 12): one-shot Check, seeing the whole trace, leaves the
// reducer off on abort-carrying traces, an online session
// disables-and-rebuilds at the first fed abort, and budgets/cancellation
// keep their sentinels under the reducer.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// commutingSLinTrace is the switch-free split-decision workload (never
// SLin(1,2) by Theorem 2), maximally commuting after the first chain
// element.
func commutingSLinTrace(w int) trace.Trace { return workload.SplitDecision(w, "p") }

// orderSensitive strips any OrderInsensitive declaration off the wrapped
// relation (interface embedding promotes only RInit's methods), so tests
// can exercise the reducer's disable-on-abort path with relations whose
// production form declares order insensitivity.
type orderSensitive struct{ RInit }

// commutingAbortTrace is an abort-carrying fixture whose commuting
// same-value proposals give the reducer something to prune: w tagged
// proposals of "a", all but the last responded, the last aborting.
func commutingAbortTrace(w int) trace.Trace {
	var tr trace.Trace
	for i := 0; i < w; i++ {
		c := trace.ClientID(fmt.Sprintf("p%d", i))
		tr = append(tr, trace.Invoke(c, 1, adt.Tag(adt.ProposeInput("a"), string(c))))
	}
	for i := 0; i < w-1; i++ {
		c := trace.ClientID(fmt.Sprintf("p%d", i))
		in := adt.Tag(adt.ProposeInput("a"), string(c))
		tr = append(tr, trace.Response(c, 1, in, adt.DecideOutput("a")))
	}
	last := trace.ClientID(fmt.Sprintf("p%d", w-1))
	return append(tr, trace.Switch(last, 2, adt.Tag(adt.ProposeInput("a"), string(last)), "a"))
}

// splitAbortTrace is the split-decision workload plus one aborting
// client: never SLin(1,2), so the search explores (and the reducer
// prunes) the full commuting extension space before rejecting.
func splitAbortTrace(w int) trace.Trace {
	tr := workload.SplitDecision(w, "p")
	in := adt.Tag(adt.ProposeInput("v0"), "pa")
	tr = append(tr, trace.Invoke("pa", 1, in))
	return append(tr, trace.Switch("pa", 2, in, "v0"))
}

// TestSLinPORAccounting: on switch-free traces the reducer is active and
// cuts nodes ≥2x on the commuting shape; with WithPOR(false) nothing is
// pruned.
func TestSLinPORAccounting(t *testing.T) {
	ctx := context.Background()
	tr := commutingSLinTrace(5)
	on, err := Check(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2, tr, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Check(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2, tr, check.WithBudget(50_000_000), check.WithPOR(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.OK != off.OK {
		t.Fatalf("verdicts disagree: por=%v nopor=%v", on.OK, off.OK)
	}
	if off.Pruned != 0 || on.Pruned == 0 {
		t.Fatalf("pruned accounting: on=%d (want >0), off=%d (want 0)", on.Pruned, off.Pruned)
	}
	if off.Nodes < 2*on.Nodes {
		t.Fatalf("expected ≥2x reduction, got %d vs %d nodes", off.Nodes, on.Nodes)
	}
	t.Logf("switch-free slin: %d nodes unreduced, %d reduced (%.1fx), %d pruned",
		off.Nodes, on.Nodes, float64(off.Nodes)/float64(on.Nodes), on.Pruned)
}

// TestSLinPORDisabledOnAborts: with an order-sensitive relation, any
// abort action leaves one-shot Check's reducer off outright — identical
// node counts and zero pruning with the option on and off. (ConsensusRInit
// itself declares order insensitivity, so the fixture wraps it to strip
// the declaration.)
func TestSLinPORDisabledOnAborts(t *testing.T) {
	ctx := context.Background()
	tr := slinTestTrace() // has a switch (abort) action
	hasAbort := false
	for _, a := range tr {
		if a.IsAbort(2) {
			hasAbort = true
		}
	}
	if !hasAbort {
		t.Fatal("fixture lost its abort action")
	}
	rinit := orderSensitive{ConsensusRInit{}}
	on, err := Check(ctx, adt.Consensus{}, rinit, 1, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Check(ctx, adt.Consensus{}, rinit, 1, 2, tr, check.WithPOR(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.Pruned != 0 {
		t.Fatalf("reducer pruned %d branches on an abort-carrying trace", on.Pruned)
	}
	if on.OK != off.OK || on.Nodes != off.Nodes {
		t.Fatalf("disabled reducer must be a no-op: on=(%v,%d nodes) off=(%v,%d nodes)",
			on.OK, on.Nodes, off.OK, off.Nodes)
	}
}

// TestSLinPORSurvivesAborts: a relation declaring its Admits predicate
// order-insensitive (ConsensusRInit) keeps one-shot Check's reducer on
// abort-carrying traces — pruning happens, verdicts agree with the
// unreduced search, and the reduced run never spends more nodes.
func TestSLinPORSurvivesAborts(t *testing.T) {
	ctx := context.Background()
	tr := splitAbortTrace(4)
	on, err := Check(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Check(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, check.WithBudget(50_000_000), check.WithPOR(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.Pruned == 0 {
		t.Fatal("reducer pruned nothing; the fixture no longer exercises the abort-surviving reduction")
	}
	if on.OK != off.OK {
		t.Fatalf("verdicts disagree across the abort: por=%v nopor=%v", on.OK, off.OK)
	}
	if on.Nodes > off.Nodes {
		t.Fatalf("reduced search spent MORE nodes than unreduced: %d > %d", on.Nodes, off.Nodes)
	}
	// The same declaration keeps the session engine reduced across the
	// abort: no disable-and-rebuild, prefix verdicts agreeing throughout.
	s, err := NewSession(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range tr {
		if err := s.Feed(a); err != nil {
			t.Fatalf("feed %d: %v", k, err)
		}
		got, err := s.Result()
		if err != nil {
			t.Fatalf("prefix %d: %v", k+1, err)
		}
		want, err := Check(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr[:k+1], check.WithBudget(50_000_000))
		if err != nil {
			t.Fatalf("one-shot prefix %d: %v", k+1, err)
		}
		if got.OK != want.OK {
			t.Fatalf("prefix %d: session %v, one-shot %v", k+1, got.OK, want.OK)
		}
	}
	if s.Pruned() == 0 {
		t.Fatal("session reducer pruned nothing across the abort")
	}
}

// TestSLinSessionAbortRebuild: a session that pruned while abort-free
// must, at the first fed abort, rebuild unreduced frontiers and keep
// agreeing with one-shot Check on every subsequent prefix. (Wrapped
// order-sensitive: ConsensusRInit's own declaration would keep the
// reducer on instead — TestSLinPORSurvivesAborts covers that path.)
func TestSLinSessionAbortRebuild(t *testing.T) {
	ctx := context.Background()
	rinit := orderSensitive{ConsensusRInit{}}
	// Commuting switch-free prefix (pruning happens), then a late switch.
	tr := commutingAbortTrace(4)

	s, err := NewSession(ctx, adt.Consensus{}, rinit, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	prunedBeforeAbort := 0
	for k, a := range tr {
		if a.IsAbort(2) {
			prunedBeforeAbort = s.Pruned()
		}
		if err := s.Feed(a); err != nil {
			t.Fatalf("feed %d: %v", k, err)
		}
		got, err := s.Result()
		if err != nil {
			t.Fatalf("prefix %d: %v", k+1, err)
		}
		want, err := Check(ctx, adt.Consensus{}, rinit, 1, 2, tr[:k+1])
		if err != nil {
			t.Fatalf("one-shot prefix %d: %v", k+1, err)
		}
		if got.OK != want.OK {
			t.Fatalf("prefix %d: session %v, one-shot %v", k+1, got.OK, want.OK)
		}
	}
	if prunedBeforeAbort == 0 {
		t.Fatal("fixture did not prune before the abort; the rebuild path was not exercised")
	}
}

// TestSLinBudgetAndCancelUnderPOR: sentinels survive the reducer.
func TestSLinBudgetAndCancelUnderPOR(t *testing.T) {
	tr := commutingSLinTrace(5)
	for _, por := range []bool{true, false} {
		res, err := Check(context.Background(), adt.Consensus{}, UniversalRInit{}, 1, 2, tr,
			check.WithBudget(30), check.WithPOR(por))
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("por=%v: expected ErrBudget, got %v", por, err)
		}
		if res.OK {
			t.Fatalf("por=%v: exhausted check must not decide", por)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Check(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}
