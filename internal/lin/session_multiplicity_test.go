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
	ok            bool
	nodes, pruned int
}

// multiplicityVariants are the engine configurations
// TestSessionMultiplicityPinned runs, each with what the dense-multiset
// engine (the commit before the open-operation sets, DESIGN.md decision
// 19) reported on seeds 1–20.
var multiplicityVariants = []struct {
	name string
	opts []check.Option
	want [20]sessionCounts
}{
	{"default", nil, [20]sessionCounts{{true, 379, 0}, {true, 854, 245}, {false, 123, 17}, {true, 331, 32}, {true, 150, 0}, {true, 556, 74}, {true, 501, 61}, {true, 110, 12}, {true, 52, 0}, {true, 108, 2}, {true, 169, 24}, {false, 595, 116}, {true, 353, 0}, {true, 416, 52}, {false, 451, 163}, {true, 189, 24}, {true, 558, 0}, {true, 312, 21}, {true, 171, 16}, {true, 90, 5}}},
	{"workers2", []check.Option{check.WithWorkers(2)}, [20]sessionCounts{{true, 379, 0}, {true, 1212, 125}, {false, 147, 9}, {true, 345, 21}, {true, 150, 0}, {true, 597, 46}, {true, 603, 28}, {true, 115, 9}, {true, 52, 0}, {true, 108, 2}, {true, 221, 22}, {false, 602, 113}, {true, 353, 0}, {true, 520, 36}, {false, 699, 78}, {true, 206, 11}, {true, 558, 0}, {true, 318, 17}, {true, 177, 13}, {true, 93, 2}}},
	{"nopor", []check.Option{check.WithPOR(false)}, [20]sessionCounts{{true, 379, 0}, {true, 1581, 0}, {false, 160, 0}, {true, 394, 0}, {true, 150, 0}, {true, 752, 0}, {true, 664, 0}, {true, 127, 0}, {true, 52, 0}, {true, 111, 0}, {true, 270, 0}, {false, 808, 0}, {true, 353, 0}, {true, 657, 0}, {false, 871, 0}, {true, 220, 0}, {true, 558, 0}, {true, 354, 0}, {true, 223, 0}, {true, 95, 0}}},
	{"nocompact", []check.Option{check.WithCompaction(false)}, [20]sessionCounts{{true, 379, 0}, {true, 1001, 329}, {false, 161, 23}, {true, 327, 32}, {true, 150, 0}, {true, 559, 81}, {true, 588, 71}, {true, 114, 12}, {true, 49, 0}, {true, 97, 2}, {true, 445, 72}, {false, 621, 124}, {true, 353, 0}, {true, 466, 57}, {false, 459, 169}, {true, 100, 10}, {true, 558, 0}, {true, 348, 24}, {true, 189, 16}, {true, 87, 5}}},
}

// TestSessionMultiplicityPinned pins the frontier engine on untagged
// traces — open-set multiplicities above one — to the verdicts of
// one-shot Check and to the exact Nodes and Pruned counts of the dense
// engine it replaced: the sparse open-operation sets change what a
// configuration stores, never which configurations exist.
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
			got[seed-1] = sessionCounts{r.OK, r.Nodes, r.Pruned}
		}
		for i := range got {
			if got[i] != v.want[i] {
				t.Errorf("%s seed %d: got %+v, dense engine %+v", v.name, i+1, got[i], v.want[i])
			}
		}
	}
	if wide < 3 {
		t.Fatalf("generator never had one input pending on 3 clients at once (max %d)", wide)
	}
}
