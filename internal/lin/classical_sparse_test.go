package lin

// Tests for the digest-keyed classical engine (DESIGN.md, decision 13):
// property and fuzz diffs against the retained bitmask reference
// (classicalRef) on the ≤63-op range — verdict, witness validity AND
// exact node counts, since the engine enumerates the same candidates in
// the same order — plus boundary coverage at 63/64/65/128 operations,
// where verdicts must agree with the new-definition checker (Theorem 1
// on unique-input traces).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// diffClassicalAgainstRef runs both classical engines on tr and fails on
// any divergence. Returns the shared verdict.
func diffClassicalAgainstRef(t *testing.T, f adt.Folder, tr trace.Trace) bool {
	t.Helper()
	opts := []check.Option{check.WithBudget(50_000_000)}
	got, err := CheckClassical(context.Background(), f, tr, opts...)
	if err != nil {
		t.Fatalf("sparse engine: %v\ntrace: %v", err, tr)
	}
	want, err := classicalRef(context.Background(), f, tr, opts...)
	if err != nil {
		t.Fatalf("reference engine: %v\ntrace: %v", err, tr)
	}
	if got.OK != want.OK {
		t.Fatalf("verdict disagreement: sparse=%v ref=%v\ntrace: %v", got.OK, want.OK, tr)
	}
	if got.Nodes != want.Nodes {
		t.Fatalf("node-count disagreement (same candidate order ⇒ identical trees): sparse=%d ref=%d\ntrace: %v",
			got.Nodes, want.Nodes, tr)
	}
	if got.OK {
		if err := VerifySequential(f, tr, got.Sequential); err != nil {
			t.Fatalf("sparse witness invalid: %v\ntrace: %v", err, tr)
		}
		if err := VerifySequential(f, tr, want.Sequential); err != nil {
			t.Fatalf("reference witness invalid: %v\ntrace: %v", err, tr)
		}
	}
	return got.OK
}

// TestClassicalSparseMatchesRefProperty sweeps E8-style random traces
// (clean and corrupted, pending tails, repeated and unique inputs)
// through both engines.
func TestClassicalSparseMatchesRefProperty(t *testing.T) {
	families := []struct {
		f      adt.Folder
		inputs []trace.Value
	}{
		{adt.Consensus{}, []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}},
		{adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput()}},
		{adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
	}
	r := rand.New(rand.NewSource(13))
	sawOK, sawBad := 0, 0
	for _, fam := range families {
		for i := 0; i < 250; i++ {
			opts := workload.TraceOpts{
				Clients: 2 + r.Intn(3), Ops: 3 + r.Intn(5), Inputs: fam.inputs,
				PendingProb: 0.2, UniqueTags: i%3 != 0,
			}
			if i%2 == 1 {
				opts.CorruptProb = 0.5
			}
			tr := workload.Random(fam.f, r, opts)
			if diffClassicalAgainstRef(t, fam.f, tr) {
				sawOK++
			} else {
				sawBad++
			}
		}
	}
	if sawOK == 0 || sawBad == 0 {
		t.Fatalf("degenerate sweep: %d linearizable, %d not — both verdicts must be exercised", sawOK, sawBad)
	}
}

// seqTrace builds an n-operation trace of unique tagged proposals:
// sequential by default, with every window-th pair of neighbours
// overlapping when window > 0, so long traces exercise real reordering
// choice without blowing up the search.
func seqTrace(n, window int, corruptAt int) trace.Trace {
	tr := make(trace.Trace, 0, 2*n)
	cons := adt.Consensus{}
	st := cons.Empty()
	for i := 0; i < n; i++ {
		c := trace.ClientID("c" + strconv.Itoa(i))
		in := adt.Tag(adt.ProposeInput("v"), strconv.Itoa(i))
		out := cons.Out(st, in)
		st = cons.Step(st, in)
		if corruptAt == i {
			out = adt.DecideOutput("corrupt")
		}
		if window > 0 && i%window == 0 && i+1 < n {
			// Overlap with the next operation: Inv i, Inv i+1, Res i.
			c2 := trace.ClientID("c" + strconv.Itoa(i+1))
			in2 := adt.Tag(adt.ProposeInput("v"), strconv.Itoa(i+1))
			out2 := cons.Out(st, in2)
			st = cons.Step(st, in2)
			if corruptAt == i+1 {
				out2 = adt.DecideOutput("corrupt")
			}
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

// TestClassicalBoundaries: at 63 (the reference's cap), 64, 65 (a
// second placed-set word) and 128 operations the checker returns verdicts, never a
// representation-cap error, the witnesses verify, and the verdict agrees
// with the new-definition checker on these unique-input traces
// (Theorem 1).
func TestClassicalBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128} {
		// The corrupted variant breaks an early operation: both searches
		// then refute within the first real-time window instead of
		// backtracking over every reordering of a long prefix.
		for _, corrupt := range []int{-1, 9} {
			tr := seqTrace(n, 4, corrupt)
			res, err := CheckClassical(context.Background(), adt.Consensus{}, tr)
			if err != nil {
				t.Fatalf("n=%d corrupt=%d: %v", n, corrupt, err)
			}
			if want := corrupt < 0; res.OK != want {
				t.Fatalf("n=%d corrupt=%d: verdict %v, want %v", n, corrupt, res.OK, want)
			}
			if res.OK {
				if len(res.Sequential) != n {
					t.Fatalf("n=%d: witness places %d operations", n, len(res.Sequential))
				}
				if err := VerifySequential(adt.Consensus{}, tr, res.Sequential); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
			newDef, err := Check(context.Background(), adt.Consensus{}, tr, check.WithExact(true))
			if err != nil {
				t.Fatalf("n=%d corrupt=%d: new-definition check: %v", n, corrupt, err)
			}
			if newDef.OK != res.OK {
				t.Fatalf("n=%d corrupt=%d: classical=%v, new definition=%v (Theorem 1 violated)",
					n, corrupt, res.OK, newDef.OK)
			}
		}
	}
}

// TestClassicalFastPathEdge: at 63 operations the engine agrees with
// the reference, which refuses 64 (its single-word cap).
func TestClassicalFastPathEdge(t *testing.T) {
	at63 := seqTrace(63, 4, -1)
	diffClassicalAgainstRef(t, adt.Consensus{}, at63)
	if _, err := classicalRef(context.Background(), adt.Consensus{}, seqTrace(64, 4, -1)); !errors.Is(err, errClassicalRefCap) {
		t.Fatalf("reference engine must keep its cap: %v", err)
	}
}

// TestClassicalBatchLongTraces: uncapped classical checks shard across
// check.Parallel's workers, long and short traces mixed.
func TestClassicalBatchLongTraces(t *testing.T) {
	traces := []trace.Trace{
		seqTrace(10, 3, -1), seqTrace(100, 4, -1), seqTrace(70, 0, 9), seqTrace(128, 5, 64),
	}
	res, err := check.Parallel(context.Background(), traces, 2, func(_ int, tr trace.Trace) (Result, error) {
		return CheckClassical(context.Background(), adt.Consensus{}, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i, r := range res {
		if r.OK != want[i] {
			t.Fatalf("trace %d: verdict %v, want %v", i, r.OK, want[i])
		}
	}
}

// TestClassicalSparseBudgetAndCancel: a long trace honours the budget
// sentinel and context cancellation.
func TestClassicalSparseBudgetAndCancel(t *testing.T) {
	long := seqTrace(100, 4, -1)
	if _, err := CheckClassical(context.Background(), adt.Consensus{}, long, check.WithBudget(5)); !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget on a long trace: %v, want ErrBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckClassical(ctx, adt.Consensus{}, long); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled long-trace check: %v, want context.Canceled", err)
	}
}

// fuzzClassicalTrace decodes fuzz bytes into a consensus trace: two
// bytes per action over four clients, mirroring diffcheck's decoder
// (responses usually answer the pending invocation, outputs drawn from a
// plausible pool, action count capped for fuzz-friendly budgets).
func fuzzClassicalTrace(data []byte) trace.Trace {
	clients := []trace.ClientID{"c1", "c2", "c3", "c4"}
	inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
	outputs := []trace.Value{adt.DecideOutput("a"), adt.DecideOutput("b")}
	pending := map[trace.ClientID]trace.Value{}
	var tr trace.Trace
	for i := 0; i+1 < len(data) && len(tr) < 16; i += 2 {
		b, o := data[i], data[i+1]
		c := clients[int(b&3)]
		if (b>>2)&1 == 0 {
			if _, open := pending[c]; open {
				continue
			}
			in := inputs[int(b>>3)%len(inputs)]
			if b&0x80 != 0 {
				in = adt.Tag(in, fmt.Sprintf("%d", i))
			}
			tr = append(tr, trace.Invoke(c, 1, in))
			pending[c] = in
		} else {
			in, ok := pending[c]
			if !ok {
				continue
			}
			tr = append(tr, trace.Response(c, 1, in, outputs[int(o)%len(outputs)]))
			delete(pending, c)
		}
	}
	return tr
}

// FuzzClassicalSparseVsRef fuzzes byte-decoded traces through both
// classical engines; CI's nightly job runs a long pass alongside the
// diffcheck agreement targets.
func FuzzClassicalSparseVsRef(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x04, 0x00})
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x04, 0x01, 0x05, 0x00})
	f.Add([]byte{0x80, 0x00, 0x89, 0x00, 0x04, 0x00, 0x05, 0x01, 0x02, 0x00, 0x06, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzClassicalTrace(data)
		if !tr.WellFormed() {
			return
		}
		opts := []check.Option{check.WithBudget(2_000_000)}
		got, gerr := CheckClassical(context.Background(), adt.Consensus{}, tr, opts...)
		want, werr := classicalRef(context.Background(), adt.Consensus{}, tr, opts...)
		if gerr != nil || werr != nil {
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("error disagreement: sparse=%v ref=%v\ntrace: %v", gerr, werr, tr)
			}
			return // both exhausted the shared budget
		}
		if got.OK != want.OK || got.Nodes != want.Nodes {
			t.Fatalf("disagreement: sparse=(%v,%d) ref=(%v,%d)\ntrace: %v",
				got.OK, got.Nodes, want.OK, want.Nodes, tr)
		}
		if got.OK {
			if err := VerifySequential(adt.Consensus{}, tr, got.Sequential); err != nil {
				t.Fatalf("%v\ntrace: %v", err, tr)
			}
		}
	})
}
