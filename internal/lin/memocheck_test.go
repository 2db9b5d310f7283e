//go:build memocheck

package lin

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMemoDigestCollisionsZero drives the production Lin engine — the
// frontier session behind Check — across a broad random sweep with the
// full-identity audit enabled and asserts that no 128-bit digest its
// deduplication merged on (the extension searches' visited set, the
// successor frontier) ever stood for two distinct configurations (the
// DESIGN.md decision 7 residual risk, measured instead of assumed).
//
// Run with: go test -tags memocheck ./internal/lin
func TestMemoDigestCollisionsZero(t *testing.T) {
	cases := []struct {
		f      adt.Folder
		inputs []trace.Value
	}{
		{adt.Consensus{}, []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}},
		{adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput()}},
		{adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
		{adt.Queue{}, []trace.Value{adt.EnqInput("x"), adt.DeqInput()}},
	}
	checks := 0
	for _, tc := range cases {
		r := rand.New(rand.NewSource(1234))
		for i := 0; i < 400; i++ {
			opts := workload.TraceOpts{
				Clients: 3, Ops: 4 + r.Intn(4), Inputs: tc.inputs,
				PendingProb: 0.2, UniqueTags: i%3 == 0,
			}
			if i%2 == 1 {
				opts.CorruptProb = 0.5
			}
			tr := workload.Random(tc.f, r, opts)
			if _, err := Check(context.Background(), tc.f, tr, check.WithExact(true)); err != nil {
				t.Fatalf("%s trace %d: %v", tc.f.Name(), i, err)
			}
			checks++
		}
	}
	// A wide exhaustive (never-linearizable) search: deduplication is
	// exercised hardest when every branch fails and re-converges.
	var hard trace.Trace
	for i := 0; i < 6; i++ {
		c := trace.ClientID(fmt.Sprintf("h%d", i))
		hard = append(hard, trace.Invoke(c, 1, adt.Tag(adt.ProposeInput(fmt.Sprintf("v%d", i)), string(c))))
	}
	for i := 0; i < 6; i++ {
		c := trace.ClientID(fmt.Sprintf("h%d", i))
		in := adt.Tag(adt.ProposeInput(fmt.Sprintf("v%d", i)), string(c))
		hard = append(hard, trace.Response(c, 1, in, adt.DecideOutput(fmt.Sprintf("v%d", i%2))))
	}
	res, err := Check(context.Background(), adt.Consensus{}, hard, check.WithBudget(50_000_000), check.WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("split-decision trace checked linearizable")
	}
	checks++

	if n := MemoCollisions(); n != 0 {
		t.Fatalf("%d memo digest collisions across %d checks (expected zero)", n, checks)
	}
	t.Logf("0 collisions across %d checks", checks)
}

// TestClassicalSpillMemoCollisionsZero audits the classical checker's
// memo (DESIGN.md decision 13: every key is the 128-bit digests of the
// placed set and of the folded state, at any trace length). Every insert
// and hit is re-derived against the full placed set and state; the count
// of mismatches must stay zero over a nonzero count of audited hits.
//
// Run with: go test -tags memocheck ./internal/lin
func TestClassicalSpillMemoCollisionsZero(t *testing.T) {
	checks := 0
	hits0 := classicalHits.Load()
	// Overlap-windowed traces: window w gives 2^(n/w)-ish reordering
	// choice, and the corrupted variants force failing branches that
	// re-converge on shared placed sets — the memo's hottest shape.
	for _, n := range []int{16, 40, 63, 64, 80, 128, 200} {
		for _, window := range []int{2, 3, 4} {
			for _, corrupt := range []int{-1, n / 2, n - 2} {
				tr := seqTrace(n, window, corrupt)
				res, err := CheckClassical(context.Background(), adt.Consensus{}, tr,
					check.WithBudget(50_000_000))
				if err != nil {
					t.Fatalf("n=%d window=%d corrupt=%d: %v", n, window, corrupt, err)
				}
				if want := corrupt < 0; res.OK != want {
					t.Fatalf("n=%d window=%d corrupt=%d: verdict %v, want %v", n, window, corrupt, res.OK, want)
				}
				checks++
			}
		}
	}
	// Random traces on both sides of 63 operations: pending tails and
	// corrupted outputs over a denser overlap structure than the windowed
	// builder produces.
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		opts := workload.TraceOpts{
			Clients: 4, Ops: 32 + r.Intn(64),
			Inputs:      []trace.Value{adt.IncInput(), adt.GetInput()},
			PendingProb: 0.1, UniqueTags: true,
		}
		if i%2 == 1 {
			opts.CorruptProb = 0.1
		}
		tr := workload.Random(adt.Counter{}, r, opts)
		if _, err := CheckClassical(context.Background(), adt.Counter{}, tr,
			check.WithBudget(50_000_000)); err != nil {
			t.Fatalf("random trace %d: %v", i, err)
		}
		checks++
	}
	// Queue traces: states are whole queue contents, so the state half of
	// a key stands for a long string.
	for i := 0; i < 40; i++ {
		tr := workload.Random(adt.Queue{}, r, workload.TraceOpts{
			Clients: 4, Ops: 20 + r.Intn(60),
			Inputs:      []trace.Value{adt.EnqInput("x"), adt.EnqInput("y"), adt.DeqInput()},
			PendingProb: 0.1, UniqueTags: true, CorruptProb: 0.1 * float64(i%2),
		})
		if _, err := CheckClassical(context.Background(), adt.Queue{}, tr,
			check.WithBudget(50_000_000)); err != nil {
			t.Fatalf("random queue trace %d: %v", i, err)
		}
		checks++
	}

	hits := classicalHits.Load() - hits0
	if n := ClassicalMemoCollisions(); n != 0 || hits == 0 {
		t.Fatalf("%d classical memo collisions in %d audited hits across %d checks (want zero in some)", n, hits, checks)
	}
	t.Logf("0 classical memo collisions in %d audited hits across %d checks", hits, checks)
}

// TestTransitionMemoAuditZero: with every transition-memo hit recomputed
// by the folder for the probe's own state and input (DESIGN.md decision
// 32), the overlap stream and a random sweep over four ADTs — 12
// operations a trace, half of them untagged, so one symbol meets many
// states — make the memo hit, and no hit ever disagrees with the folder.
// (A hit that skipped the state comparison fails here with hundreds of
// mismatches.)
//
// Run with: go test -tags memocheck ./internal/lin
func TestTransitionMemoAuditZero(t *testing.T) {
	hits0, _ := TransitionAudit()
	s := newOverlapSession(adt.Set{})
	if err := s.FeedAll(overlapStream(1, 6)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for _, f := range []adt.Folder{adt.Register{}, adt.Queue{}, adt.Stack{}, adt.Set{}} {
		inputs := map[string][]trace.Value{
			"register": {adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput()},
			"queue":    {adt.EnqInput("x"), adt.EnqInput("y"), adt.DeqInput()},
			"stack":    {adt.PushInput("x"), adt.PopInput()},
			"set":      {adt.AddInput("x"), adt.RemoveInput("x"), adt.HasInput("x")},
		}[f.Name()]
		for i := 0; i < 200; i++ {
			tr := workload.Random(f, r, workload.TraceOpts{
				Clients: 4, Ops: 12, Inputs: inputs, PendingProb: 0.2, UniqueTags: i%2 == 0, CorruptProb: 0.3,
			})
			if _, err := Check(context.Background(), f, tr, check.WithExact(true)); err != nil {
				t.Fatalf("%s trace %d: %v", f.Name(), i, err)
			}
		}
	}
	hits, mismatches := TransitionAudit()
	if hits == hits0 || mismatches != 0 {
		t.Fatalf("%d audited transition-memo hits, %d mismatches: want some hits and no mismatch", hits-hits0, mismatches)
	}
	t.Logf("0 mismatches in %d audited transition-memo hits", hits-hits0)
}
