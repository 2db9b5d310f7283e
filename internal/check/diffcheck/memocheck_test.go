//go:build memocheck

package diffcheck

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMemoAuditsZero runs the Lin differential — one-shot and online
// lin, slin at (1,2), the references — on overlap rounds and random set
// traces, and slin's on first-phase consensus traces, with both audits of
// the memocheck build on: no digest the frontier engine deduplicated on
// stood for two identities, and no transition-memo hit disagreed with
// the folder (DESIGN.md decisions 7 and 32).
//
// Run with: go test -tags memocheck ./internal/check/diffcheck
func TestMemoAuditsZero(t *testing.T) {
	ctx := context.Background()
	hits0, _ := lin.TransitionAudit()
	g := &overlapGen{r: rand.New(rand.NewSource(3))}
	for _, sh := range overlapShapes {
		tr, _ := g.round(sh)
		if err := Lin(ctx, adt.Set{}, tr); err != nil {
			t.Fatalf("overlap round %v: %v", sh, err)
		}
	}
	r := rand.New(rand.NewSource(31))
	inputs := []trace.Value{adt.AddInput("x"), adt.RemoveInput("x"), adt.HasInput("x"), adt.AddInput("y")}
	for i := 0; i < 100; i++ {
		tr := workload.Random(adt.Set{}, r, workload.TraceOpts{
			Clients: 3, Ops: 5, Inputs: inputs, PendingProb: 0.2, UniqueTags: true, CorruptProb: 0.3,
		})
		if err := Lin(ctx, adt.Set{}, tr); err != nil {
			t.Fatalf("set trace %d: %v", i, err)
		}
		tr = workload.FirstPhase(r, workload.PhaseOpts{Clients: 3, ViolateProb: 0.2})
		if err := SLin(ctx, adt.Consensus{}, slin.ConsensusRInit{}, 1, 2, tr, i%2 == 0); err != nil {
			t.Fatalf("first-phase trace %d: %v", i, err)
		}
	}
	hits, mismatches := lin.TransitionAudit()
	if n := lin.MemoCollisions(); n != 0 || mismatches != 0 || hits == hits0 {
		t.Fatalf("%d digest collisions, %d transition-memo mismatches in %d audited hits: want none of either over some hits",
			n, mismatches, hits-hits0)
	}
	t.Logf("0 collisions; 0 mismatches in %d audited transition-memo hits", hits-hits0)
}
