package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// timedCheck runs one checker call and returns its wall time in ms.
func timedCheck(fn func() (lin.Result, error)) (lin.Result, float64, error) {
	start := time.Now()
	r, err := fn()
	return r, float64(time.Since(start).Microseconds()) / 1000, err
}

// E14LongTraceSweep exercises the uncapped classical checker (DESIGN.md,
// decision 13) at trace lengths the former 63-operation bitmask cap made
// unreachable: 128/256/512-operation sweeps through CheckClassical and
// the new-definition engine with the partial-order reduction on and off.
// Traces use unique occurrence tags, so Theorem 1 applies and every
// verdict triple is asserted identical — the long-trace extension of the
// E8 equivalence sweep, now also covering the regime where the PR 1
// memoization and the decision-12 reduction matter most.
func E14LongTraceSweep(ctx context.Context) (Table, error) {
	t := Table{
		ID:    "E14",
		Title: "uncapped classical checking: 128/256/512-operation traces, classical vs new definition (POR on/off)",
		Header: []string{"workload", "ops", "traces", "verdicts agree",
			"classical nodes", "new nodes (POR)", "new nodes (full)", "pruned", "classical ms", "new ms (POR)"},
		Notes: []string{
			"The classical checker's placed sets spill from the single-word fast path " +
				"to the sparse word-array representation beyond 63 operations (decision " +
				"13), so every row here was a hard failure of the former 63-operation " +
				"cap before this experiment existed. Unique occurrence tags make the classical and new " +
				"definitions coincide (Theorem 1); verdict agreement across all three " +
				"engines is asserted per trace. The split-suffix family plants a " +
				"split-decision group behind a long decided prefix: its symbols intern " +
				"beyond 64, so the new engine's pruning there exercises the sleep-set " +
				"spill as well.",
		},
	}
	for _, fam := range E14Families() {
		st, err := E14Measure(ctx, fam.F, fam.Traces)
		if err != nil {
			return t, fmt.Errorf("E14 %s: %w", fam.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			fam.Name,
			fmt.Sprintf("%d", fam.Ops),
			fmt.Sprintf("%d", st.Traces),
			pct(st.Agree, st.Traces),
			fmt.Sprintf("%d", st.NodesClassical),
			fmt.Sprintf("%d", st.NodesPOR),
			fmt.Sprintf("%d", st.NodesFull),
			fmt.Sprintf("%d", st.Pruned),
			f2(st.ClassicalMs),
			f2(st.PORMs),
		})
	}
	return t, nil
}

// E14Stats aggregates one E14 workload family.
type E14Stats struct {
	Traces         int
	Agree          int
	NodesClassical int
	NodesPOR       int
	NodesFull      int
	Pruned         int
	ClassicalMs    float64
	PORMs          float64
	FullMs         float64
}

// E14Measure runs the engine triple — classical, new-definition reduced,
// new-definition unreduced — over every trace and aggregates; any
// verdict disagreement (Theorem 1 on these unique-input traces) is an
// error.
func E14Measure(ctx context.Context, f adt.Folder, traces []trace.Trace) (E14Stats, error) {
	var st E14Stats
	budget := check.WithBudget(50_000_000)
	for _, tr := range traces {
		classical, ms, err := timedCheck(func() (lin.Result, error) {
			return lin.CheckClassical(ctx, f, tr, budget)
		})
		if err != nil {
			return st, err
		}
		st.NodesClassical += classical.Nodes
		st.ClassicalMs += ms
		red, ms, err := timedCheck(func() (lin.Result, error) {
			return lin.Check(ctx, f, tr, budget, check.WithWitness(false))
		})
		if err != nil {
			return st, err
		}
		st.NodesPOR += red.Nodes
		st.Pruned += red.Pruned
		st.PORMs += ms
		full, ms, err := timedCheck(func() (lin.Result, error) {
			return lin.Check(ctx, f, tr, budget, check.WithWitness(false), check.WithPOR(false))
		})
		if err != nil {
			return st, err
		}
		st.NodesFull += full.Nodes
		st.FullMs += ms
		st.Traces++
		if classical.OK == red.OK && red.OK == full.OK {
			st.Agree++
		} else {
			return st, fmt.Errorf("verdict disagreement on a unique-input trace (Theorem 1): classical=%v por=%v full=%v",
				classical.OK, red.OK, full.OK)
		}
	}
	return st, nil
}

// E14Family is one long-trace workload family.
type E14Family struct {
	Name   string
	Ops    int
	F      adt.Folder
	Traces []trace.Trace
}

// E14Families generates the experiment's deterministic workload
// families: linearizable random register traces at each length, the same
// with an early corrupted response (both engines refute within the first
// real-time window, keeping long negative searches tractable), and the
// split-suffix consensus family whose contentious group interns beyond
// symbol 64 (sleep-set spill coverage).
func E14Families() []E14Family {
	var fams []E14Family
	counts := map[int]int{128: 24, 256: 12, 512: 6}
	for _, ops := range []int{128, 256, 512} {
		r := rand.New(rand.NewSource(14))
		n := counts[ops]
		clean := make([]trace.Trace, n)
		for i := range clean {
			clean[i] = workload.Random(adt.Register{}, r, workload.TraceOpts{
				Clients: 3, Ops: ops, PendingProb: 0.15, UniqueTags: true,
				Inputs: []trace.Value{adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput()},
			})
		}
		fams = append(fams, E14Family{Name: "register-random-clean", Ops: ops, F: adt.Register{}, Traces: clean})
		fams = append(fams, E14Family{
			Name: "consensus-corrupted-early", Ops: ops, F: adt.Consensus{},
			Traces: []trace.Trace{e14SeqTrace(ops, 4, 9), e14SeqTrace(ops, 6, 11)},
		})
		fams = append(fams, E14Family{
			Name: "consensus-split-suffix", Ops: ops, F: adt.Consensus{},
			Traces: []trace.Trace{e14SplitSuffix(ops, 5)},
		})
	}
	return fams
}

// e14SeqTrace builds an n-operation unique-tagged consensus trace,
// sequential except that every window-th pair of neighbours overlaps;
// corruptAt (if ≥ 0) replaces that operation's output with an
// unexplainable decision, destroying linearizability at a bounded search
// cost (the refutation stays within the corrupted window).
func e14SeqTrace(n, window, corruptAt int) trace.Trace {
	tr := make(trace.Trace, 0, 2*n)
	cons := adt.Consensus{}
	st := cons.Empty()
	emit := func(i int) (trace.ClientID, trace.Value, trace.Value) {
		c := trace.ClientID("c" + strconv.Itoa(i))
		in := adt.Tag(adt.ProposeInput("v"), strconv.Itoa(i))
		out := cons.Out(st, in)
		st = cons.Step(st, in)
		if corruptAt == i {
			out = adt.DecideOutput("corrupt")
		}
		return c, in, out
	}
	for i := 0; i < n; i++ {
		c, in, out := emit(i)
		if window > 0 && i%window == 0 && i+1 < n {
			c2, in2, out2 := emit(i + 1)
			tr = append(tr,
				trace.Invoke(c, 1, in), trace.Invoke(c2, 1, in2),
				trace.Response(c, 1, in, out), trace.Response(c2, 1, in2, out2))
			i++
			continue
		}
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, out))
	}
	return tr
}

// e14SplitSuffix is a sequential decided prefix of n-w proposals followed
// by a w-wide split-decision group contradicting the decided value —
// non-linearizable, with the contentious (mutually commuting) symbols
// interned beyond the prefix's, i.e. ≥ 64 for the lengths E14 uses.
func e14SplitSuffix(n, w int) trace.Trace {
	var tr trace.Trace
	cons := adt.Consensus{}
	st := cons.Empty()
	for i := 0; i < n-w; i++ {
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
