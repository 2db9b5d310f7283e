package lin

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestHashedMemoAgreesWithReference is the engine's property test
// (extending experiment E8): the digest-keyed frontier engine behind
// Check must return the same verdict as the retained string-keyed
// depth-first CheckReference on randomized traces across four ADTs,
// corrupted and clean, with and without occurrence tags.
func TestHashedMemoAgreesWithReference(t *testing.T) {
	cases := []struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
	}{
		{"consensus", adt.Consensus{}, []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}},
		{"register", adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.ReadInput()}},
		{"counter", adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
		{"queue", adt.Queue{}, []trace.Value{adt.EnqInput("x"), adt.DeqInput()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1234))
			for i := 0; i < 300; i++ {
				opts := workload.TraceOpts{
					Clients: 3, Ops: 4 + r.Intn(3), Inputs: tc.inputs,
					PendingProb: 0.2, UniqueTags: i%3 != 2,
				}
				if i%2 == 1 {
					opts.CorruptProb = 0.5
				}
				tr := workload.Random(tc.f, r, opts)
				got, err := Check(context.Background(), tc.f, tr)
				if err != nil {
					t.Fatalf("optimized: %v", err)
				}
				want, err := CheckReference(tc.f, tr)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if got.OK != want.OK {
					t.Fatalf("verdict mismatch on %v: optimized %v, reference %v", tr, got.OK, want.OK)
				}
				if got.OK {
					if err := VerifyWitness(tc.f, tr, got.Witness); err != nil {
						t.Fatalf("optimized witness invalid: %v", err)
					}
				}
			}
		})
	}
}

// linearizableTrace returns a small fixed linearizable trace for the
// allocation and budget tests.
func linearizableTrace() trace.Trace {
	inA := adt.Tag(adt.ProposeInput("a"), "c1")
	inB := adt.Tag(adt.ProposeInput("b"), "c2")
	inC := adt.Tag(adt.ProposeInput("c"), "c3")
	return trace.Trace{
		trace.Invoke("c1", 1, inA),
		trace.Invoke("c2", 1, inB),
		trace.Response("c2", 1, inB, adt.DecideOutput("b")),
		trace.Invoke("c3", 1, inC),
		trace.Response("c1", 1, inA, adt.DecideOutput("b")),
		trace.Response("c3", 1, inC, adt.DecideOutput("b")),
	}
}

// TestCheckAllocsRegression pins the allocation budget of the hot path.
// The string-key baseline spent ~400 allocs on traces of this size; the
// hashed-memo checker spends a small constant amount of setup plus the
// witness assembly. The bound is deliberately loose (2× current) so the
// test fails on an accidental return to per-node allocation, not on noise.
func TestCheckAllocsRegression(t *testing.T) {
	if memocheckEnabled {
		t.Skip("memocheck audit allocates by design")
	}
	tr := linearizableTrace()
	f := adt.Consensus{}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Check(context.Background(), f, tr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("lin.Check: %.1f allocs/op", allocs)
	if allocs > 120 {
		t.Errorf("lin.Check allocates %.1f times per op; budget is 120 (hot path regressed to per-node allocation?)", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := CheckClassical(context.Background(), f, tr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("lin.CheckClassical: %.1f allocs/op", allocs)
	if allocs > 60 {
		t.Errorf("lin.CheckClassical allocates %.1f times per op; budget is 60", allocs)
	}
}

// feedPeak runs one-shot Check's engine on tr action by action and
// returns the most nodes one fed action spends and the total.
func feedPeak(t *testing.T, f adt.Folder, tr trace.Trace) (peak, total int) {
	t.Helper()
	s := newSessionSettings(context.Background(), f, check.NewSettings(check.WithWitness(false)))
	s.Lookahead(tr, nil)
	for _, a := range tr {
		fed := s.Nodes()
		if err := s.Feed(a); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, s.Nodes()-fed)
	}
	return peak, s.Nodes()
}

// TestBudgetUniform verifies the uniform budget semantics: the budget
// bounds the search nodes of each fed action of Check (DESIGN.md,
// decision 34) and of the whole search of CheckClassical, and exhausting
// it yields ErrBudget from both checkers.
func TestBudgetUniform(t *testing.T) {
	tr := linearizableTrace()
	f := adt.Consensus{}

	full, err := Check(context.Background(), f, tr)
	if err != nil {
		t.Fatal(err)
	}
	peak, total := feedPeak(t, f, tr)
	if full.Nodes <= 0 || total != full.Nodes || peak >= total {
		t.Fatalf("Check spent %d nodes; feeding its engine spent %d, at most %d in one action", full.Nodes, total, peak)
	}
	// A budget of the dearest feed succeeds; one less fails.
	if _, err := Check(context.Background(), f, tr, check.WithBudget(peak)); err != nil {
		t.Fatalf("budget == the dearest feed's %d nodes should succeed, got %v", peak, err)
	}
	if _, err := Check(context.Background(), f, tr, check.WithBudget(peak-1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget == the dearest feed's nodes - 1 should exhaust, got %v", err)
	}

	fullC, err := CheckClassical(context.Background(), f, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fullC.Nodes <= 0 {
		t.Fatalf("expected positive classical node count, got %d", fullC.Nodes)
	}
	if _, err := CheckClassical(context.Background(), f, tr, check.WithBudget(fullC.Nodes)); err != nil {
		t.Fatalf("classical budget == nodes should succeed, got %v", err)
	}
	if _, err := CheckClassical(context.Background(), f, tr, check.WithBudget(fullC.Nodes-1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("classical budget == nodes-1 should exhaust, got %v", err)
	}

	// The reference checker agrees on a failed search.
	bad := trace.Trace{
		trace.Invoke("c1", 1, adt.Tag(adt.ProposeInput("a"), "c1")),
		trace.Invoke("c2", 1, adt.Tag(adt.ProposeInput("b"), "c2")),
		trace.Response("c1", 1, adt.Tag(adt.ProposeInput("a"), "c1"), adt.DecideOutput("a")),
		trace.Response("c2", 1, adt.Tag(adt.ProposeInput("b"), "c2"), adt.DecideOutput("b")),
	}
	opt, err := Check(context.Background(), f, bad)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CheckReference(f, bad)
	if err != nil {
		t.Fatal(err)
	}
	if opt.OK || ref.OK {
		t.Fatalf("split-decision trace accepted: optimized %v, reference %v", opt.OK, ref.OK)
	}
}

// TestCheckAllMatchesSequential verifies the batch checker returns the
// same verdicts as sequential checks, in order, for several pool sizes.
func TestCheckAllMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := adt.Consensus{}
	inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
	traces := make([]trace.Trace, 64)
	for i := range traces {
		opts := workload.TraceOpts{Clients: 3, Ops: 5, Inputs: inputs, UniqueTags: true}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		traces[i] = workload.Random(f, r, opts)
	}
	want := make([]bool, len(traces))
	for i, tr := range traces {
		res, err := Check(context.Background(), f, tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.OK
	}
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := CheckAll(context.Background(), f, traces, check.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range traces {
			if got[i].OK != want[i] {
				t.Fatalf("workers=%d trace %d: batch %v, sequential %v", workers, i, got[i].OK, want[i])
			}
		}
		gotC, err := CheckClassicalAll(context.Background(), f, traces, check.WithWorkers(workers))
		if err != nil {
			t.Fatalf("classical workers=%d: %v", workers, err)
		}
		for i := range traces {
			if gotC[i].OK != want[i] {
				t.Fatalf("classical workers=%d trace %d: batch %v, new-definition %v", workers, i, gotC[i].OK, want[i])
			}
		}
	}
}

// TestCheckAllPropagatesError verifies a budget exhaustion inside the
// batch surfaces as an error instead of a silent wrong verdict.
func TestCheckAllPropagatesError(t *testing.T) {
	f := adt.Consensus{}
	traces := []trace.Trace{linearizableTrace(), linearizableTrace()}
	_, err := CheckAll(context.Background(), f, traces, check.WithBudget(1))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}
