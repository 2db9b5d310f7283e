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

// CheckLin routes plain traces through the SLin machinery (Theorem 2's
// reduction in the m = 1 direction) and must agree with package lin's
// direct checker on universal-ADT traces.
func TestCheckLinAgainstLin(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	inputs := []string{"a", "b", "c"}
	iters := 150
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		opts := workload.TraceOpts{
			Clients: 2, Ops: 2 + r.Intn(3), Inputs: inputs, UniqueTags: true,
		}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		tr := workload.Random(adt.Universal{}, r, opts)
		direct, err := lin.Check(context.Background(), adt.Universal{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		viaSLin, err := CheckLin(context.Background(), adt.Universal{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if direct.OK != viaSLin.OK {
			t.Fatalf("CheckLin disagrees with lin.Check: %v vs %v on %v",
				viaSLin.OK, direct.OK, tr)
		}
	}
}

// TestOneShotBudgetPerFeed pins one budget rule for both one-shot
// engines: each is its session fed the whole trace, so the budget bounds
// each fed action of lin.Check and slin.CheckLin alike (DESIGN.md,
// decision 34). 200 sequential register writes spend far more than 100
// nodes in all and decide within 100 per action, in the same nodes on
// both. (Before decision 34 one budget spanned the whole check by
// default, and this trace exhausted it.)
func TestOneShotBudgetPerFeed(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		c := trace.ClientID(fmt.Sprintf("w%d", i))
		in := adt.WriteInput(fmt.Sprint(i))
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.WriteOutput()))
	}
	ctx := context.Background()
	linRes, linErr := lin.Check(ctx, adt.Register{}, tr, check.WithBudget(100))
	slinRes, slinErr := CheckLin(ctx, adt.Register{}, tr, check.WithBudget(100))
	if linErr != nil || !linRes.OK || slinErr != nil || !slinRes.OK {
		t.Fatalf("100 nodes per fed action: lin.Check %v, %v; slin.CheckLin %v, %v; want linearizable",
			linRes.OK, linErr, slinRes.OK, slinErr)
	}
	if linRes.Nodes <= 100 || slinRes.Nodes != linRes.Nodes {
		t.Fatalf("lin.Check spent %d nodes, slin.CheckLin %d: want the same, beyond one budget", linRes.Nodes, slinRes.Nodes)
	}
	t.Logf("%d nodes", linRes.Nodes)
}
