package slin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestHashedMemoAgreesWithReference is the engine's property test: the
// digest-keyed frontier behind Check must return the same verdict as the
// retained string-keyed CheckReference on randomized phase traces, for
// first phases (m = 1, no Init-Order), second phases (m = 2, init actions
// with representative interpretations), both Abort-Order semantics, and
// clean as well as violating schedules, and its witnesses must verify.
// The two engines explore different spaces — a frontier of chains per
// interpretation combination against a memoized depth-first search that
// stops at the first failing combination — so their node counts are not
// compared.
func TestHashedMemoAgreesWithReference(t *testing.T) {
	t.Run("first-phase", func(t *testing.T) {
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			opts := workload.PhaseOpts{Clients: 2 + r.Intn(2), NoLateOps: i%2 == 0}
			if i%3 == 0 {
				opts.ViolateProb = 0.4
			}
			tr := workload.FirstPhase(r, opts)
			temporal := i%4 < 2
			compareImpls(t, adt.Consensus{}, ConsensusRInit{Probe: i%5 == 0}, 1, 2, tr, temporal)
		}
	})
	t.Run("second-phase", func(t *testing.T) {
		r := rand.New(rand.NewSource(299))
		for i := 0; i < 300; i++ {
			opts := workload.PhaseOpts{Clients: 2 + r.Intn(2)}
			if i%3 == 0 {
				opts.ViolateProb = 0.4
			}
			tr := workload.SecondPhase(r, 2, opts)
			temporal := i%4 < 2
			compareImpls(t, adt.Consensus{}, ConsensusRInit{Probe: i%5 == 0}, 2, 3, tr, temporal)
		}
	})
	t.Run("switch-free", func(t *testing.T) {
		// Abort-free traces: plain operations checked as SLin(1,2) per
		// Theorem 2, where the position-free identity merges the most.
		r := rand.New(rand.NewSource(399))
		inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
		for i := 0; i < 200; i++ {
			opts := workload.TraceOpts{Clients: 3, Ops: 4 + r.Intn(3), Inputs: inputs, UniqueTags: true}
			if i%2 == 1 {
				opts.CorruptProb = 0.5
			}
			tr := workload.Random(adt.Consensus{}, r, opts)
			compareImpls(t, adt.Consensus{}, UniversalRInit{}, 1, 2, tr, false)
		}
	})
}

func compareImpls(t *testing.T, f adt.Folder, rinit RInit, m, n int, tr trace.Trace, temporal bool) {
	t.Helper()
	got, err := Check(context.Background(), f, rinit, m, n, tr, check.WithTemporalAbortOrder(temporal))
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := CheckReference(f, rinit, m, n, tr, check.WithTemporalAbortOrder(temporal))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got.OK != want.OK {
		t.Fatalf("verdict mismatch on %v (m=%d n=%d temporal=%v): engine %v, reference %v",
			tr, m, n, temporal, got.OK, want.OK)
	}
	if got.OK {
		for _, w := range got.Witnesses {
			if err := VerifyWitness(f, rinit, m, n, tr, w, temporal); err != nil {
				t.Fatalf("engine witness invalid on %v: %v", tr, err)
			}
		}
	}
}

// slinTestTrace is a small first-phase trace with a switch, exercising
// commit, abort-discharge and the consensus r_init.
func slinTestTrace() trace.Trace {
	inA := adt.Tag(adt.ProposeInput("a"), "q1")
	inB := adt.Tag(adt.ProposeInput("b"), "q2")
	return trace.Trace{
		trace.Invoke("q1", 1, inA),
		trace.Invoke("q2", 1, inB),
		trace.Response("q1", 1, inA, adt.DecideOutput("a")),
		trace.Switch("q2", 2, inB, "a"),
	}
}

// auditBuild reports a build under the memocheck tag, whose digest audit
// allocates by design (memocheck_test.go sets it).
var auditBuild bool

// TestCheckAllocsRegression pins the allocation budget of the slin hot
// path; the bound is loose (≈2× current) so it catches a return to
// per-node allocation, not noise.
func TestCheckAllocsRegression(t *testing.T) {
	if auditBuild {
		t.Skip("memocheck audit allocates by design")
	}
	tr := slinTestTrace()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("slin.Check: %.1f allocs/op", allocs)
	if allocs > 120 {
		t.Errorf("slin.Check allocates %.1f times per op; budget is 120 (hot path regressed to per-node allocation?)", allocs)
	}
}

// TestBudgetSharedAcrossInterpretations verifies the uniform budget
// semantics: one allowance per fed action of a Check call, shared across
// all init-interpretation combinations (DESIGN.md, decision 34).
func TestBudgetSharedAcrossInterpretations(t *testing.T) {
	// A second-phase trace with an init action checked under Probe has two
	// representative interpretations, so Check runs at least two
	// combinations; the least budget that decides is the most one feed
	// spends across them, and the feed that exhausts one node less names
	// them all.
	r := rand.New(rand.NewSource(5))
	var tr trace.Trace
	for i := 0; i < 50; i++ {
		tr = workload.SecondPhase(r, 2, workload.PhaseOpts{Clients: 3})
		res, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{Probe: true}, 2, 3, tr)
		if err != nil || !res.OK || len(res.Witnesses) < 2 {
			continue
		}
		// Found a trace exercising ≥2 combinations.
		full := res
		if full.Nodes <= 0 {
			t.Fatalf("expected positive node count, got %d", full.Nodes)
		}
		run := func(budget int) error {
			_, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{Probe: true}, 2, 3, tr, check.WithBudget(budget))
			return err
		}
		least := sort.Search(full.Nodes, func(b int) bool { return run(b+1) == nil }) + 1
		if least > full.Nodes || run(least) != nil {
			t.Fatalf("no budget up to the %d nodes the check spends decides", full.Nodes)
		}
		err = run(least - 1)
		if !errors.Is(err, ErrBudget) || !strings.Contains(err.Error(), fmt.Sprintf(" %d combinations, ", len(full.Witnesses))) {
			t.Fatalf("budget %d, one below the least that decides: %v, want ErrBudget across %d combinations",
				least-1, err, len(full.Witnesses))
		}
		t.Logf("%d nodes in all, at most %d in one feed: %v", full.Nodes, least, err)
		return
	}
	t.Fatal("no generated trace exercised two interpretation combinations")
}

// TestBudgetExhaustionSurfaces verifies a tiny budget yields ErrBudget.
func TestBudgetExhaustionSurfaces(t *testing.T) {
	if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, slinTestTrace(), check.WithBudget(1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if _, err := CheckReference(adt.Consensus{}, ConsensusRInit{}, 1, 2, slinTestTrace(), check.WithBudget(1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("reference: expected ErrBudget, got %v", err)
	}
}

// TestCheckAllMatchesSequential verifies the batch checker returns the
// same verdicts as sequential checks, in order, for several pool sizes.
func TestCheckAllMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	traces := make([]trace.Trace, 48)
	for i := range traces {
		opts := workload.PhaseOpts{Clients: 3, NoLateOps: true}
		if i%3 == 0 {
			opts.ViolateProb = 0.4
		}
		traces[i] = workload.FirstPhase(r, opts)
	}
	want := make([]bool, len(traces))
	for i, tr := range traces {
		res, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.OK
	}
	for _, workers := range []int{0, 1, 4} {
		got, err := CheckAll(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, traces, check.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range traces {
			if got[i].OK != want[i] {
				t.Fatalf("workers=%d trace %d: batch %v, sequential %v", workers, i, got[i].OK, want[i])
			}
		}
	}
}
