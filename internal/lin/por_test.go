package lin

// Tests for the sleep-set partial-order reduction (check.WithPOR,
// DESIGN.md decision 12): pruned-branch accounting, the budget /
// cancellation sentinels' independence from the reducer, the uncapped
// classical checker's indifference to it (decision 13), and
// worker-count independence of verdicts beyond GOMAXPROCS.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// commutingTrace is the split-decision consensus workload with w
// concurrent proposals: after the first chain element every remaining
// proposal is a no-op on the decided state, so the unreduced search
// enumerates factorially many extension orders the reducer collapses.
func commutingTrace(w int) trace.Trace { return workload.SplitDecision(w, "p") }

// TestPORAccounting pins the Nodes/Pruned bookkeeping: the reducer must
// actually prune on a commuting workload (and never with WithPOR(false)),
// spend no more nodes than the unreduced search, and agree on the
// verdict.
func TestPORAccounting(t *testing.T) {
	ctx := context.Background()
	tr := commutingTrace(6)
	on, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(50_000_000), check.WithPOR(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.OK != off.OK {
		t.Fatalf("verdicts disagree: por=%v nopor=%v", on.OK, off.OK)
	}
	if off.Pruned != 0 {
		t.Fatalf("unreduced search reported %d pruned branches", off.Pruned)
	}
	if on.Pruned == 0 {
		t.Fatal("reducer pruned nothing on a maximally commuting trace")
	}
	if on.Nodes >= off.Nodes {
		t.Fatalf("reduced search spent %d nodes, unreduced %d — no reduction", on.Nodes, off.Nodes)
	}
	if off.Nodes < 2*on.Nodes {
		t.Fatalf("expected ≥2x node reduction on the commuting trace, got %d vs %d", off.Nodes, on.Nodes)
	}
	t.Logf("commuting trace: %d nodes unreduced, %d reduced (%.1fx), %d pruned",
		off.Nodes, on.Nodes, float64(off.Nodes)/float64(on.Nodes), on.Pruned)
}

// TestClassicalUncappedUnderPOR: the classical checker is uncapped
// (decision 13) and orthogonal to the reducer (the classical search has
// no extension branch sets); a 64-operation trace decides identically —
// same verdict, same node count — with the reducer on and off, and
// agrees with the new-definition checker (Theorem 1; unique inputs).
func TestClassicalUncappedUnderPOR(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 64; i++ {
		c := trace.ClientID(fmt.Sprintf("c%d", i))
		in := adt.Tag(adt.IncInput(), fmt.Sprintf("%d", i))
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.CountOutput(i+1)))
	}
	var nodes []int
	for _, por := range []bool{true, false} {
		res, err := CheckClassical(context.Background(), adt.Counter{}, tr, check.WithPOR(por))
		if err != nil {
			t.Fatalf("por=%v: classical check on 64 ops: %v", por, err)
		}
		if !res.OK {
			t.Fatalf("por=%v: sequential 64-op trace must be linearizable*", por)
		}
		nodes = append(nodes, res.Nodes)
		ok, err := Check(context.Background(), adt.Counter{}, tr, check.WithPOR(por))
		if err != nil {
			t.Fatalf("por=%v: Check on 64 ops: %v", por, err)
		}
		if !ok.OK {
			t.Fatalf("por=%v: sequential 64-op trace must be linearizable", por)
		}
	}
	if nodes[0] != nodes[1] {
		t.Fatalf("classical node counts depend on the (ignored) reducer option: %v", nodes)
	}
}

// TestPORNodeCountsPinned pins the exact (Nodes, Pruned) bookkeeping of
// the reduced depth-first search on the split-decision family. The
// values were recorded before the push-variant chain APIs started
// reusing the Step/Out pair FilterIndependent's callers precompute (the
// ISSUE 5 perf satellite): the optimization must not change the search
// tree, only shave folder calls, so any drift here means the reduction
// itself changed. The frontier engine (workers 2) has no reducer — its
// configuration identity already merges the commit orders one would
// prune (decision 20) — and is pinned beside it.
func TestPORNodeCountsPinned(t *testing.T) {
	want := map[int]struct{ nodes, pruned, unreduced, frontier int }{
		5: {nodes: 104, pruned: 102, unreduced: 398, frontier: 71},
		6: {nodes: 233, pruned: 343, unreduced: 2291, frontier: 205},
	}
	for w, exp := range want {
		tr := commutingTrace(w)
		res, err := Check(context.Background(), adt.Consensus{}, tr, check.WithBudget(50_000_000))
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.Nodes != exp.nodes || res.Pruned != exp.pruned {
			t.Errorf("w=%d: nodes=%d pruned=%d, want nodes=%d pruned=%d",
				w, res.Nodes, res.Pruned, exp.nodes, exp.pruned)
		}
		res, err = Check(context.Background(), adt.Consensus{}, tr, check.WithBudget(50_000_000), check.WithWorkers(2))
		if err != nil {
			t.Fatalf("w=%d frontier: %v", w, err)
		}
		if res.Nodes != exp.frontier || res.Pruned != 0 {
			t.Errorf("w=%d frontier: nodes=%d pruned=%d, want nodes=%d pruned=0", w, res.Nodes, res.Pruned, exp.frontier)
		}
		off, err := Check(context.Background(), adt.Consensus{}, tr,
			check.WithBudget(50_000_000), check.WithPOR(false))
		if err != nil {
			t.Fatalf("w=%d unreduced: %v", w, err)
		}
		if off.Nodes != exp.unreduced {
			t.Errorf("w=%d unreduced: nodes=%d, want %d", w, off.Nodes, exp.unreduced)
		}
	}
}

// TestBudgetInterplayWithPOR: exhausting the budget yields ErrBudget with
// Nodes ≤ budget regardless of the reducer, on both engines; and a budget
// sufficient for the reduced search but not the unreduced one
// demonstrates the interplay is per-engine, not per-option.
func TestBudgetInterplayWithPOR(t *testing.T) {
	ctx := context.Background()
	tr := commutingTrace(6)
	for _, por := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			res, err := Check(ctx, adt.Consensus{}, tr,
				check.WithBudget(50), check.WithPOR(por), check.WithWorkers(workers))
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("por=%v workers=%d: expected ErrBudget, got %v", por, workers, err)
			}
			if res.OK {
				t.Fatalf("por=%v workers=%d: exhausted check must not decide", por, workers)
			}
			if res.Nodes > 50+1 {
				t.Fatalf("por=%v workers=%d: %d nodes spent beyond the budget", por, workers, res.Nodes)
			}
		}
	}
	// A budget between the two costs: the reduced search completes, the
	// unreduced one exhausts — the reduction enlarges the decidable set.
	on, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	mid := on.Nodes + 1
	if _, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(mid)); err != nil {
		t.Fatalf("reduced search must fit in %d nodes: %v", mid, err)
	}
	if _, err := Check(ctx, adt.Consensus{}, tr, check.WithBudget(mid), check.WithPOR(false)); !errors.Is(err, ErrBudget) {
		t.Fatalf("unreduced search in %d nodes: expected ErrBudget, got %v", mid, err)
	}
}

// TestCancellationUnderPOR: a cancelled context aborts reduced searches
// with the context error, on the depth, frontier and session engines.
func TestCancellationUnderPOR(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := commutingTrace(6)
	for _, workers := range []int{1, 2} {
		_, err := Check(ctx, adt.Consensus{}, tr, check.WithWorkers(workers))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: expected context.Canceled, got %v", workers, err)
		}
	}
	s := NewSession(ctx, adt.Consensus{})
	var err error
	for _, a := range tr {
		if err = s.Feed(a); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("session: expected context.Canceled, got %v", err)
	}
	if v := s.Verdict(); v != check.Unknown {
		t.Fatalf("session verdict after cancel = %v, want Unknown", v)
	}
}

// TestWorkerCountIndependence pins verdict independence of the worker
// count beyond GOMAXPROCS: the sharded claim set must give the same
// verdicts when workers heavily oversubscribe the cores (the >GOMAXPROCS
// regime the ShardedSet stress test exercises at the structure level).
func TestWorkerCountIndependence(t *testing.T) {
	ctx := context.Background()
	over := 2*runtime.GOMAXPROCS(0) + 3
	r := workerIndependenceTraces()
	for i, tc := range r {
		want, err := Check(ctx, tc.f, tc.tr, check.WithWorkers(1))
		if err != nil {
			t.Fatalf("case %d sequential: %v", i, err)
		}
		for _, workers := range []int{2, over} {
			for _, por := range []bool{true, false} {
				got, err := Check(ctx, tc.f, tc.tr, check.WithWorkers(workers), check.WithPOR(por))
				if err != nil {
					t.Fatalf("case %d workers=%d por=%v: %v", i, workers, por, err)
				}
				if got.OK != want.OK {
					t.Fatalf("case %d workers=%d por=%v: verdict %v, sequential %v\ntrace: %v",
						i, workers, por, got.OK, want.OK, tc.tr)
				}
			}
		}
	}
}

func workerIndependenceTraces() []struct {
	f  adt.Folder
	tr trace.Trace
} {
	out := sessionTestTraces(911, 60)
	// Include the wide commuting trace: a large frontier actually spreads
	// over the oversubscribed workers.
	out = append(out, struct {
		f  adt.Folder
		tr trace.Trace
	}{adt.Consensus{}, commutingTrace(5)})
	return out
}
