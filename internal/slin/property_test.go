package slin

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The §2.4 reduction, first phase: randomly generated first-phase traces
// satisfying invariants I1–I3 are speculatively linearizable. Schedules
// with operations invoked after a switch need the temporal Abort-Order
// (see Options); NoLateOps schedules satisfy the literal one.
func TestInvariantsImplyFirstPhaseSLin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		strict := i%2 == 0
		tr := workload.FirstPhase(r, workload.PhaseOpts{
			Clients:   2 + r.Intn(3),
			NoLateOps: strict,
		})
		if err := FirstPhaseInvariants(tr, 1, 2); err != nil {
			t.Fatalf("generator violated invariants: %v on %v", err, tr)
		}
		res, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, check.WithTemporalAbortOrder(!strict))
		if err != nil {
			t.Fatalf("Check: %v on %v", err, tr)
		}
		if !res.OK {
			t.Fatalf("I1–I3 trace not SLin (strict=%v): %s on %v", strict, res.Reason, tr)
		}
		for _, w := range res.Witnesses {
			if err := VerifyWitness(adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, w, !strict); err != nil {
				t.Fatalf("invalid witness: %v on %v", err, tr)
			}
		}
	}
}

// The §2.4 reduction, second phase: traces satisfying I4–I5 are
// speculatively linearizable.
func TestInvariantsImplySecondPhaseSLin(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		tr := workload.SecondPhase(r, 2, workload.PhaseOpts{Clients: 2 + r.Intn(3)})
		if err := SecondPhaseInvariants(tr, 2, 3); err != nil {
			t.Fatalf("generator violated invariants: %v on %v", err, tr)
		}
		res, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 2, 3, tr)
		if err != nil {
			t.Fatalf("Check: %v on %v", err, tr)
		}
		if !res.OK {
			t.Fatalf("I4–I5 trace not SLin: %s on %v", res.Reason, tr)
		}
		for _, w := range res.Witnesses {
			if err := VerifyWitness(adt.Consensus{}, ConsensusRInit{}, 2, 3, tr, w, false); err != nil {
				t.Fatalf("invalid witness: %v on %v", err, tr)
			}
		}
	}
}

// Violated invariants are detected, and violating traces (almost always)
// fail SLin; we assert the direction that must hold: whenever the SLin
// checker accepts, the invariants hold too (for these consensus phases the
// invariants are necessary conditions).
func TestViolationsRejected(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	sawViolation := false
	for i := 0; i < 300; i++ {
		tr := workload.FirstPhase(r, workload.PhaseOpts{ViolateProb: 0.4, NoLateOps: true})
		invErr := FirstPhaseInvariants(tr, 1, 2)
		res, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr)
		if err != nil {
			t.Fatalf("Check: %v on %v", err, tr)
		}
		if invErr != nil {
			sawViolation = true
		}
		if res.OK && invErr != nil {
			// I2 and I3 violations always break SLin. I1 violations do
			// too for this generator's traces (switch values that are not
			// the decided value cannot anchor an admissible abort
			// history extending the commit chain) — so acceptance with a
			// violated invariant is a checker bug.
			t.Fatalf("SLin accepted a trace violating %v: %v", invErr, tr)
		}
	}
	if !sawViolation {
		t.Fatal("generator produced no violations")
	}
}

// Theorem 2 at scale: on switch-free traces, SLin(1,2) coincides with
// plain linearizability (package lin).
func TestTheorem2AgainstLin(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		opts := workload.TraceOpts{Clients: 2, Ops: 2 + r.Intn(3), Inputs: inputs}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		tr := workload.Random(adt.Consensus{}, r, opts)
		linRes, err := lin.Check(context.Background(), adt.Consensus{}, tr, check.WithExact(true))
		if err != nil {
			t.Fatal(err)
		}
		slinRes, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if linRes.OK != slinRes.OK {
			t.Fatalf("Theorem 2 violated: lin=%v slin=%v on %v", linRes.OK, slinRes.OK, tr)
		}
	}
}

// The intra-object composition theorem (Theorem 3), property-tested on
// generated two-phase consensus traces: when both projections satisfy
// their phase properties, the composite satisfies SLin(1,3). Composite
// traces are built by stitching a first-phase trace to a second-phase
// trace whose init actions mirror the first's aborts.
func TestCompositionTheoremGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	iters := 200
	if testing.Short() {
		iters = 50
	}
	checked := 0
	for i := 0; i < iters; i++ {
		comp := composedTrace(r)
		first := comp.ProjectSig(1, 2)
		second := comp.ProjectSig(2, 3)
		r1, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, first)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 2, 3, second)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.OK || !r2.OK {
			continue // theorem's hypotheses not met; nothing to check
		}
		checked++
		rc, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 3, comp)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.OK {
			t.Fatalf("composition theorem violated: phases OK but composite fails: %s on %v",
				rc.Reason, comp)
		}
	}
	if checked == 0 {
		t.Fatal("no composed trace met the theorem's hypotheses")
	}
}

// composedTrace builds a two-phase consensus trace: phase 1 runs Quorum-
// style with NoLateOps, and every aborting client continues in phase 2,
// which decides the first switch value submitted.
func composedTrace(r *rand.Rand) trace.Trace {
	first := workload.FirstPhase(r, workload.PhaseOpts{Clients: 2 + r.Intn(2), NoLateOps: true})
	var comp trace.Trace
	comp = append(comp, first...)
	decision := trace.Value("")
	for _, a := range first {
		if a.IsAbort(2) && decision == "" {
			decision = a.SwitchValue
		}
	}
	for _, a := range first {
		if a.IsAbort(2) {
			comp = append(comp, trace.Response(a.Client, 2, a.Input, adt.DecideOutput(decision)))
		}
	}
	return comp
}
