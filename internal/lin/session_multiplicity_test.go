package lin

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// untaggedTrace is seed's random trace without occurrence tags: 4–5
// clients draw from two inputs, so the same symbol is pending on several
// clients at once and the session's open-operation multisets hold
// multiplicities above one.
func untaggedTrace(seed int64) (adt.Folder, trace.Trace) {
	r := rand.New(rand.NewSource(seed))
	cases := []struct {
		f      adt.Folder
		inputs []trace.Value
	}{
		{adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.ReadInput()}},
		{adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
		{adt.Queue{}, []trace.Value{adt.EnqInput("x"), adt.DeqInput()}},
		{adt.Set{}, []trace.Value{adt.AddInput("x"), adt.HasInput("x")}},
	}
	tc := cases[seed%int64(len(cases))]
	opts := workload.TraceOpts{
		Clients: 4 + r.Intn(2), Ops: 7 + r.Intn(4), Inputs: tc.inputs, PendingProb: 0.15,
	}
	if seed%3 == 0 {
		opts.CorruptProb = 0.3
	}
	return tc.f, workload.Random(tc.f, r, opts)
}

// maxOpenSame returns the largest number of clients that have the same
// input pending at once in t.
func maxOpenSame(t trace.Trace) int {
	open := map[trace.Value]int{}
	most := 0
	for _, a := range t {
		switch a.Kind {
		case trace.Inv:
			open[a.Input]++
			most = max(most, open[a.Input])
		case trace.Res:
			open[a.Input]--
		}
	}
	return most
}

type sessionCounts struct {
	ok    bool
	nodes int
}

// sequentialCounts is what a sequential session reports on seeds 1–20.
// The verdicts are those of the dense-multiset engine two identities
// ago; the node counts were re-baselined when decision 20 took commit
// order out of the configuration identity.
var sequentialCounts = [20]sessionCounts{{true, 174}, {true, 87}, {false, 38}, {true, 104}, {true, 88}, {true, 91}, {true, 85}, {true, 38}, {true, 24}, {true, 36}, {true, 62}, {false, 61}, {true, 107}, {true, 68}, {false, 117}, {true, 45}, {true, 169}, {true, 77}, {true, 46}, {true, 37}}

// multiplicityVariants are the engine configurations
// TestSessionMultiplicityPinned runs, each with its exact counts on
// seeds 1–20. The witness chain is storage only, so that variant must
// reproduce the default's.
var multiplicityVariants = []struct {
	name string
	opts []check.Option
	want [20]sessionCounts
}{
	{"default", nil, sequentialCounts},
	{"nowitness", []check.Option{check.WithWitness(false)}, sequentialCounts},
}

// TestSessionMultiplicityPinned pins the frontier engine on untagged
// traces — several clients holding the same input open, so equal
// symbols sit side by side in a configuration's entries — to the
// verdicts of one-shot Check and to exact node counts: a change to what
// a configuration stores must not change which configurations exist.
func TestSessionMultiplicityPinned(t *testing.T) {
	ctx := context.Background()
	wide := 0
	for _, v := range multiplicityVariants {
		var got [20]sessionCounts
		for seed := int64(1); seed <= 20; seed++ {
			f, tr := untaggedTrace(seed)
			wide = max(wide, maxOpenSame(tr))
			s := NewSession(ctx, f, v.opts...)
			if err := s.FeedAll(tr); err != nil {
				t.Fatalf("%s seed %d: %v", v.name, seed, err)
			}
			r, err := s.Result()
			if err != nil {
				t.Fatalf("%s seed %d: %v", v.name, seed, err)
			}
			one, err := Check(ctx, f, tr)
			if err != nil {
				t.Fatalf("%s seed %d one-shot: %v", v.name, seed, err)
			}
			if r.OK != one.OK {
				t.Fatalf("%s seed %d: session %v, one-shot %v\ntrace: %v", v.name, seed, r.OK, one.OK, tr)
			}
			got[seed-1] = sessionCounts{r.OK, r.Nodes}
		}
		for i := range got {
			if got[i] != v.want[i] {
				t.Errorf("%s seed %d: got %+v, want %+v", v.name, i+1, got[i], v.want[i])
			}
		}
	}
	if wide < 3 {
		t.Fatalf("generator never had one input pending on 3 clients at once (max %d)", wide)
	}
}
