package diffcheck

// High-symbol tests, named for the sleep sets they were written for
// (DESIGN.md, decision 13; the reducer went with decision 29): traces
// whose interner assigns more than 64 symbols and whose chains carry a
// long claimed prefix, cross-checked through the engine matrices and the
// string-keyed references.

import (
	"context"
	"errors"
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
// the trace non-linearizable, so the search exhausts every commit order
// of symbols beyond the former 64-symbol cap.
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

// TestSleepSpillHighSymbolsPrune: the spill trace is rejected, by the
// whole engine matrices plus the incremental lin session on every prefix.
func TestSleepSpillHighSymbolsPrune(t *testing.T) {
	ctx := context.Background()
	tr := spillTrace(5)
	budget := check.WithBudget(50_000_000)

	// The Theorem-2 oracle: the string-keyed slin reference at m = 1,
	// which shares no code with the frontier engine, skipped when it
	// exhausts its own budget.
	switch ref, err := slin.CheckReference(adt.Consensus{}, slin.UniversalRInit{}, 1, 2, tr, check.WithBudget(refBudget)); {
	case errors.Is(err, slin.ErrBudget):
		t.Logf("the reference exhausted its %d-node budget", refBudget)
	case err != nil || ref.OK:
		t.Fatalf("reference on the spill trace: %v (%v); the split-decision suffix must not be linearizable", ref.OK, err)
	default:
		t.Logf("reference: %d nodes", ref.Nodes)
	}
	if err := SLin(ctx, adt.Consensus{}, slin.UniversalRInit{}, 1, 2, tr, false, budget); err != nil {
		t.Fatal(err)
	}
	if err := Lin(ctx, adt.Consensus{}, tr, budget); err != nil {
		t.Fatal(err)
	}
	if err := LinPrefixes(ctx, adt.Consensus{}, tr, budget); err != nil {
		t.Fatal(err)
	}
}

// TestSleepSpillWiderSweep varies the commuting-group width and checks
// the engine matrix at each.
func TestSleepSpillWiderSweep(t *testing.T) {
	ctx := context.Background()
	budget := check.WithBudget(50_000_000)
	for _, w := range []int{2, 3, 4} {
		if err := SLin(ctx, adt.Consensus{}, slin.UniversalRInit{}, 1, 2, spillTrace(w), false, budget); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
	}
}
