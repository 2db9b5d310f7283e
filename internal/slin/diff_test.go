package slin_test

// Extends the property suite of this package (property_test.go) with the
// engine-variant differential harness (internal/check/diffcheck): the
// SLin engine one-shot and online and the string-keyed reference must
// agree on randomized phase traces — abort-heavy first phases included —
// and on switch-free Theorem-2 traces, where the position-free identity
// merges the most. External test package: diffcheck imports slin.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check/diffcheck"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFirstPhaseEngineMatrix: abort-heavy Quorum-shaped schedules, both
// Abort-Order semantics, clean and invariant-violating.
func TestFirstPhaseEngineMatrix(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	iters := 100
	if testing.Short() {
		iters = 25
	}
	aborts := 0
	for i := 0; i < iters; i++ {
		opts := workload.PhaseOpts{Clients: 2 + r.Intn(3), NoLateOps: i%2 == 0}
		if i%3 == 0 {
			opts.ViolateProb = 0.4
		}
		tr := workload.FirstPhase(r, opts)
		for _, a := range tr {
			if a.IsAbort(2) {
				aborts++
				break
			}
		}
		if err := diffcheck.SLin(ctx, adt.Consensus{}, slin.ConsensusRInit{}, 1, 2, tr, i%4 < 2); err != nil {
			t.Fatal(err)
		}
	}
	if aborts < iters/2 {
		t.Fatalf("abort-heavy generator produced only %d/%d traces with aborts", aborts, iters)
	}
}

// TestTheorem2EngineMatrix: switch-free traces, where no abort makes the
// SLin engine positional; SLin(1,2) and the lin matrix must both be
// self-consistent and (per Theorem 2) agree with each other.
func TestTheorem2EngineMatrix(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(17))
	inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
	iters := 80
	if testing.Short() {
		iters = 20
	}
	for i := 0; i < iters; i++ {
		opts := workload.TraceOpts{Clients: 2, Ops: 2 + r.Intn(3), Inputs: inputs, UniqueTags: i%3 != 0}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		tr := workload.Random(adt.Consensus{}, r, opts)
		if err := diffcheck.SLin(ctx, adt.Consensus{}, slin.UniversalRInit{}, 1, 2, tr, false); err != nil {
			t.Fatal(err)
		}
		if err := diffcheck.Lin(ctx, adt.Consensus{}, tr); err != nil {
			t.Fatal(err)
		}
	}
}
