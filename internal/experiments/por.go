package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E13PORReduction quantifies the sleep-set partial-order reduction
// (DESIGN.md, decision 12) on E8-style random sweeps plus the hard
// split-decision family: for every trace the reduced and unreduced
// depth-first engines run back to back, verdicts are asserted identical,
// and the aggregate node counts give the reduction factor. The
// split-decision family is the reducer's best case — after the first
// chain element every remaining proposal commutes — and shows the
// factorial-to-multiset collapse; the uniform sweeps show the expected
// mixed-workload factor.
func E13PORReduction(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "partial-order reduction: nodes explored, unreduced vs sleep-set reduced",
		Header: []string{"workload", "traces", "verdicts agree", "nodes (full)", "nodes (POR)", "reduction", "pruned branches"},
		Notes: []string{
			"Reduced and unreduced engines run on identical traces with identical " +
				"budgets; a reduction of 1.00x means the workload has no commuting " +
				"extension branches (counter increments and queue enqueues conflict; " +
				"consensus proposals after a decision and register reads commute). " +
				"Verdict agreement is asserted per trace — the differential harness " +
				"(internal/check/diffcheck) property-tests and fuzzes the same claim.",
		},
	}
	for _, fam := range e13Families() {
		row, err := e13Row(ctx, fam.name, fam.f, fam.traces)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e13Contended names the family whose ≥2x node-count reduction is the
// experiment's acceptance bar (TestE13Shape).
const e13Contended = "consensus E8 sweep, contended (5 clients × 8 ops)"

type e13Family struct {
	name   string
	f      adt.Folder
	traces []trace.Trace
}

// e13Families generates the experiment's deterministic workload
// families.
func e13Families() []e13Family {
	proposals := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b"), adt.ProposeInput("c")}
	var split []trace.Trace
	for w := 5; w <= 7; w++ {
		split = append(split, workload.SplitDecision(w, "h"))
	}
	return []e13Family{
		{"consensus E8 sweep", adt.Consensus{}, e13Sweep(adt.Consensus{}, proposals)},
		{e13Contended, adt.Consensus{}, e13WideSweep(adt.Consensus{}, proposals)},
		{"register E8 sweep", adt.Register{}, e13Sweep(adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.ReadInput()})},
		{"counter E8 sweep", adt.Counter{}, e13Sweep(adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()})},
		{"split-decision (5..7 wide)", adt.Consensus{}, split},
	}
}

// e13Sweep mirrors the E8 generator: 400 traces, clean/corrupted mix,
// unique occurrence tags, seed 42.
func e13Sweep(f adt.Folder, inputs []trace.Value) []trace.Trace {
	r := rand.New(rand.NewSource(42))
	const n = 400
	traces := make([]trace.Trace, n)
	for i := range traces {
		opts := workload.TraceOpts{
			Clients: 3, Ops: 4 + r.Intn(3), Inputs: inputs,
			PendingProb: 0.2, UniqueTags: true,
		}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		traces[i] = workload.Random(f, r, opts)
	}
	return traces
}

// e13WideSweep is the contended E8-style variant: the same generator at
// 5 clients × 8 operations with more pending tails, where commit-time
// availability sets are wide enough that commuting extension orders
// dominate the search (the ≥2x acceptance workload of ISSUE 4).
func e13WideSweep(f adt.Folder, inputs []trace.Value) []trace.Trace {
	r := rand.New(rand.NewSource(42))
	const n = 200
	traces := make([]trace.Trace, n)
	for i := range traces {
		opts := workload.TraceOpts{
			Clients: 5, Ops: 8, Inputs: inputs,
			PendingProb: 0.3, UniqueTags: true,
		}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		traces[i] = workload.Random(f, r, opts)
	}
	return traces
}

// E13Stats is the measured aggregate of one E13 workload family.
type E13Stats struct {
	Traces    int
	Agree     int
	NodesFull int
	NodesPOR  int
	Pruned    int
}

// Reduction returns the node-count reduction factor.
func (s E13Stats) Reduction() float64 {
	if s.NodesPOR == 0 {
		return 1
	}
	return float64(s.NodesFull) / float64(s.NodesPOR)
}

// E13Measure runs the reduced/unreduced pair over every trace and
// aggregates; it errors on any verdict disagreement (the experiment's
// soundness assertion).
func E13Measure(ctx context.Context, f adt.Folder, traces []trace.Trace) (E13Stats, error) {
	var st E13Stats
	budget := check.WithBudget(50_000_000)
	for _, tr := range traces {
		full, err := lin.Check(ctx, f, tr, budget, check.WithPOR(false), check.WithWitness(false))
		if err != nil {
			return st, err
		}
		red, err := lin.Check(ctx, f, tr, budget, check.WithWitness(false))
		if err != nil {
			return st, err
		}
		st.Traces++
		if full.OK == red.OK {
			st.Agree++
		} else {
			return st, fmt.Errorf("E13: reduced engine disagrees on %v: full=%v reduced=%v", tr, full.OK, red.OK)
		}
		st.NodesFull += full.Nodes
		st.NodesPOR += red.Nodes
		st.Pruned += red.Pruned
	}
	return st, nil
}

func e13Row(ctx context.Context, name string, f adt.Folder, traces []trace.Trace) ([]string, error) {
	st, err := E13Measure(ctx, f, traces)
	if err != nil {
		return nil, err
	}
	return []string{
		name,
		fmt.Sprintf("%d", st.Traces),
		pct(st.Agree, st.Traces),
		fmt.Sprintf("%d", st.NodesFull),
		fmt.Sprintf("%d", st.NodesPOR),
		fmt.Sprintf("%.2fx", st.Reduction()),
		fmt.Sprintf("%d", st.Pruned),
	}, nil
}
