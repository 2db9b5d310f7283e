package diffcheck

// Sleep-set spill tests (DESIGN.md, decision 13): traces whose interner
// assigns more than 64 symbols, where the formerly-capped sleep sets
// (symbols ≥ 64 never slept) now actually prune — cross-checked through
// the decision-12 differential harness, since more pruning is exactly
// where a spill bug would turn the checker into a liar. The reducer's
// remaining home is slin (DESIGN.md, decision 21), so the tests drive it
// through slin.CheckLin, SLin(1,2) on a switch-free trace.

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/slin"
	"repro/internal/trace"
)

// spillTrace builds a consensus trace with 66 sequential unique-tagged
// proposals (symbols 0..65, the first one deciding) followed by a
// split-decision group of w concurrent proposals (symbols 66..66+w-1)
// whose responses contradict the long-decided value. The suffix makes
// the trace non-linearizable, so the search exhausts its full DAG; at
// the decided state the suffix proposals are no-ops that commute, so
// every extension order the reducer prunes there sleeps a symbol beyond
// the former 64-symbol cap: any pruning on this trace is spill pruning.
func spillTrace(w int) trace.Trace {
	var tr trace.Trace
	cons := adt.Consensus{}
	st := cons.Empty()
	const prefix = 66
	for i := 0; i < prefix; i++ {
		c := trace.ClientID("s" + strconv.Itoa(i))
		in := adt.Tag(adt.ProposeInput("x"+strconv.Itoa(i)), strconv.Itoa(i))
		out := cons.Out(st, in)
		st = cons.Step(st, in)
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, out))
	}
	for i := 0; i < w; i++ {
		c := trace.ClientID("h" + strconv.Itoa(i))
		tr = append(tr, trace.Invoke(c, 1, adt.Tag(adt.ProposeInput("v"+strconv.Itoa(i)), string(c))))
	}
	for i := 0; i < w; i++ {
		c := trace.ClientID("h" + strconv.Itoa(i))
		in := adt.Tag(adt.ProposeInput("v"+strconv.Itoa(i)), string(c))
		tr = append(tr, trace.Response(c, 1, in, adt.DecideOutput("v"+strconv.Itoa(i%2))))
	}
	return tr
}

// TestSleepSpillHighSymbolsPrune: on the spill trace the reduced search
// must prune (under the former cap Pruned was structurally 0 here), spend
// fewer nodes than the unreduced search, and agree with the whole engine
// matrices plus the incremental lin session on every prefix.
func TestSleepSpillHighSymbolsPrune(t *testing.T) {
	ctx := context.Background()
	tr := spillTrace(5)
	budget := check.WithBudget(50_000_000)

	on, err := slin.CheckLin(ctx, adt.Consensus{}, tr, budget)
	if err != nil {
		t.Fatal(err)
	}
	if on.OK {
		t.Fatal("split-decision suffix must not be linearizable")
	}
	if on.Pruned == 0 {
		t.Fatal("no pruning on commuting symbols ≥ 64 — the sleep-set spill is not engaged")
	}
	off, err := slin.CheckLin(ctx, adt.Consensus{}, tr, budget, check.WithPOR(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.Nodes >= off.Nodes {
		t.Fatalf("spill pruning saved nothing: reduced %d nodes, unreduced %d", on.Nodes, off.Nodes)
	}
	t.Logf("spill trace: %d → %d nodes, %d pruned", off.Nodes, on.Nodes, on.Pruned)

	if err := SLin(ctx, adt.Consensus{}, slin.UniversalRInit{}, 1, 2, tr, false, budget); err != nil {
		t.Fatal(err)
	}
	// The 66 claimed proposals are past the length at which the session
	// compacts its chains, so SLin above compared compacted configurations
	// with the reference — provided the reference fits its own budget.
	ref, err := slin.CheckReference(adt.Consensus{}, slin.UniversalRInit{}, 1, 2, tr, check.WithBudget(refBudget))
	if err != nil || ref.OK {
		t.Fatalf("reference on the spill trace: %v (%v); SLin ran without its oracle", ref.OK, err)
	}
	t.Logf("reference: %d nodes", ref.Nodes)
	if err := Lin(ctx, adt.Consensus{}, tr, budget); err != nil {
		t.Fatal(err)
	}
	if err := LinPrefixes(ctx, adt.Consensus{}, tr, budget); err != nil {
		t.Fatal(err)
	}
}

// TestSleepSpillWiderSweep varies the commuting-group width and checks
// the engine matrix at each: wider groups sleep more high symbols.
func TestSleepSpillWiderSweep(t *testing.T) {
	ctx := context.Background()
	budget := check.WithBudget(50_000_000)
	prev := 0
	for _, w := range []int{2, 3, 4} {
		tr := spillTrace(w)
		if err := SLin(ctx, adt.Consensus{}, slin.UniversalRInit{}, 1, 2, tr, false, budget); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		on, err := slin.CheckLin(ctx, adt.Consensus{}, tr, budget)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if on.Pruned <= prev {
			t.Fatalf("w=%d: pruned %d, want more than %d (width must increase spill pruning)",
				w, on.Pruned, prev)
		}
		prev = on.Pruned
	}
}
