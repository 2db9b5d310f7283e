//go:build memocheck

package slin

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

// TestMemoDigestCollisionsZero is the slin counterpart of the lin
// collision audit, pointed at the running engine: a broad sweep of
// first-phase, untagged and second-phase traces (both Abort-Order
// readings) plus a contended exhaustive search, through Check and online
// Sessions, asserting that no 128-bit digest the session deduplicated on
// — ExpandFrontier's successor merge, its one deduplication point —
// ever stood for two distinct chains, and that the audit compared some
// hits at all.
//
// Run with: go test -tags memocheck ./internal/slin
func TestMemoDigestCollisionsZero(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	checks := 0
	for i := 0; i < 400; i++ {
		tr := workload.FirstPhase(r, workload.PhaseOpts{
			Clients:     3,
			NoLateOps:   i%2 == 0,
			ViolateProb: 0.2,
		})
		for _, temporal := range []bool{false, true} {
			if _, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, tr,
				check.WithTemporalAbortOrder(temporal)); err != nil {
				t.Fatalf("trace %d temporal=%v: %v", i, temporal, err)
			}
			checks++
		}
	}
	// Untagged proposals: equal inputs pending on several clients, so
	// distinct configurations converge on one successor and merge — the
	// hits the audit compares.
	inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
	for i := 0; i < 200; i++ {
		tr := workload.Random(adt.Consensus{}, r, workload.TraceOpts{Clients: 3, Ops: 5, Inputs: inputs})
		for _, por := range []bool{true, false} {
			if _, err := Check(context.Background(), adt.Consensus{}, UniversalRInit{}, 1, 2, tr,
				check.WithPOR(por)); err != nil {
				t.Fatalf("untagged trace %d por=%v: %v", i, por, err)
			}
			checks++
		}
	}
	for i := 0; i < 100; i++ {
		tr := workload.SecondPhase(r, 2, workload.PhaseOpts{Clients: 3, ViolateProb: 0.2})
		s, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{Probe: i%2 == 0}, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(tr); err != nil {
			t.Fatalf("second-phase trace %d: %v", i, err)
		}
		if _, err := s.Result(); err != nil {
			t.Fatalf("second-phase trace %d: %v", i, err)
		}
		checks++
	}
	// Contended never-SLin trace: exhausts the extension space.
	var hard trace.Trace
	const n = 5
	for i := 0; i < n; i++ {
		c := trace.ClientID(fmt.Sprintf("q%d", i))
		hard = append(hard, trace.Invoke(c, 1, adt.Tag(adt.ProposeInput(fmt.Sprintf("v%d", i)), string(c))))
	}
	for i := 0; i < n; i++ {
		c := trace.ClientID(fmt.Sprintf("q%d", i))
		in := adt.Tag(adt.ProposeInput(fmt.Sprintf("v%d", i)), string(c))
		if i < 2 {
			hard = append(hard, trace.Response(c, 1, in, adt.DecideOutput(fmt.Sprintf("v%d", i))))
		} else {
			hard = append(hard, trace.Switch(c, 2, in, fmt.Sprintf("v%d", i)))
		}
	}
	res, err := Check(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2, hard, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("split-decision trace checked SLin")
	}
	checks++

	if c := MemoCollisions(); c != 0 {
		t.Fatalf("%d memo digest collisions across %d checks (expected zero)", c, checks)
	}
	if memoHits.Load() == 0 {
		t.Fatal("the audit compared no digest hit: it is not watching the running engine")
	}
	t.Logf("0 collisions in %d audited hits across %d checks", memoHits.Load(), checks)
}
