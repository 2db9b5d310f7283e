//go:build memocheck

package slin

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() { auditBuild = true }

// TestMemoDigestCollisionsZero points lin's collision audit at the
// frontier engine as slin drives it: a broad sweep of first-phase,
// untagged and second-phase traces (both Abort-Order readings) plus a
// contended exhaustive search, through Check and online Sessions, under
// both configuration identities, asserting that no 128-bit digest the
// engine deduplicated on — at the successor merge or at the extension
// searches' visited set — ever stood for two distinct identities, that
// slin's checks made the audit compare hits under each identity, and
// that no transition-memo hit disagreed with the folder.
//
// Run with: go test -tags memocheck ./internal/slin
func TestMemoDigestCollisionsZero(t *testing.T) {
	free0, ordered0 := lin.MemoHits()
	trans0, _ := lin.TransitionAudit()
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
	// hits the audit compares — under either identity.
	inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
	for i := 0; i < 200; i++ {
		tr := workload.Random(adt.Consensus{}, r, workload.TraceOpts{Clients: 3, Ops: 5, Inputs: inputs})
		for _, pos := range []bool{false, true} {
			if _, err := checkAs(pos, adt.Consensus{}, UniversalRInit{}, 1, 2, tr); err != nil {
				t.Fatalf("untagged trace %d ordered=%v: %v", i, pos, err)
			}
			checks++
		}
	}
	for i := 0; i < 100; i++ {
		tr := workload.SecondPhase(r, 2, workload.PhaseOpts{Clients: 3, ViolateProb: 0.2})
		if _, err := feedAs(i%3 == 0, adt.Consensus{}, ConsensusRInit{Probe: i%2 == 0}, 2, 3, tr); err != nil {
			t.Fatalf("second-phase trace %d: %v", i, err)
		}
		checks++
	}
	// The commuting fixtures under both identities and both relations:
	// the order-sensitive one switches an online session to the ordered
	// identity at its abort.
	for w := 3; w <= 6; w++ {
		for _, rinit := range []RInit{ConsensusRInit{}, orderSensitive{ConsensusRInit{}}} {
			for _, tr := range []trace.Trace{commutingAbortTrace(w), splitAbortTrace(w)} {
				for _, pos := range []bool{false, true} {
					if _, err := checkAs(pos, adt.Consensus{}, rinit, 1, 2, tr, check.WithBudget(50_000_000)); err != nil {
						t.Fatalf("w=%d ordered=%v: %v", w, pos, err)
					}
				}
				if _, err := feedAs(false, adt.Consensus{}, rinit, 1, 2, tr, check.WithBudget(50_000_000)); err != nil {
					t.Fatalf("w=%d online: %v", w, err)
				}
				checks += 3
			}
		}
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

	if c := lin.MemoCollisions(); c != 0 {
		t.Fatalf("%d memo digest collisions across %d checks (expected zero)", c, checks)
	}
	free, ordered := lin.MemoHits()
	free, ordered = free-free0, ordered-ordered0
	if free == 0 || ordered == 0 {
		t.Fatalf("the audit compared %d hits under the position-free identity and %d under the ordered one: it is not watching the running engine",
			free, ordered)
	}
	trans, mismatches := lin.TransitionAudit()
	if trans == trans0 || mismatches != 0 {
		t.Fatalf("%d audited transition-memo hits, %d mismatches: want some hits and no mismatch", trans-trans0, mismatches)
	}
	t.Logf("0 collisions in %d audited hits (%d position-free, %d ordered) and 0 mismatches in %d transition-memo hits across %d checks",
		free+ordered, free, ordered, trans-trans0, checks)
}
