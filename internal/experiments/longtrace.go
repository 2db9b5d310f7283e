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
// the new-definition engine. Traces use unique occurrence tags, so
// Theorem 1 applies and every verdict pair is asserted identical — the
// long-trace extension of the E8 equivalence sweep.
func E14LongTraceSweep(ctx context.Context) (Table, error) {
	t := Table{
		ID:    "E14",
		Title: "uncapped classical checking: 128/256/512-operation traces, classical vs new definition",
		Header: []string{"workload", "ops", "traces",
			"classical nodes", "new nodes", "classical ms", "new ms"},
		Notes: []string{
			"Beyond 63 operations the classical checker's placed sets spill to the " +
				"sparse word-array representation (decision 13): every row was a hard " +
				"failure of the former cap. Unique occurrence tags make the definitions " +
				"coincide (Theorem 1); a disagreement fails the experiment. The new-definition " +
				"column is the frontier engine run one-shot (decision 21): on the " +
				"low-overlap register family it enumerates every configuration where a " +
				"depth-first search would stop at its first witness.",
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
			fmt.Sprintf("%d", st.NodesClassical),
			fmt.Sprintf("%d", st.NodesNew),
			f2(st.ClassicalMs),
			f2(st.NewMs),
		})
	}
	return t, nil
}

// E14Stats aggregates one E14 workload family.
type E14Stats struct {
	Traces         int
	NodesClassical int
	NodesNew       int
	ClassicalMs    float64
	NewMs          float64
}

// E14Measure runs the engine pair — classical and new-definition — over
// every trace and aggregates; any verdict disagreement (Theorem 1 on
// these unique-input traces) is an error.
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
		res, ms, err := timedCheck(func() (lin.Result, error) {
			return lin.Check(ctx, f, tr, budget, check.WithWitness(false), check.WithExact(true))
		})
		if err != nil {
			return st, err
		}
		st.NodesNew += res.Nodes
		st.NewMs += ms
		st.Traces++
		if classical.OK != res.OK {
			return st, fmt.Errorf("verdict disagreement on a unique-input trace (Theorem 1): classical=%v new=%v",
				classical.OK, res.OK)
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
// split-suffix consensus family: a split-decision group behind a long
// decided prefix.
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
// non-linearizable, refuted only by exhausting the group's orders.
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
