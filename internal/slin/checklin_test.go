package slin

import (
	"context"
	"errors"
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

// TestOneShotFeedBudget pins one budget rule for both one-shot engines:
// each is its session fed the whole trace, so check.WithFeedBudget
// rebases the budget at every fed action of lin.Check and slin.CheckLin
// alike. 200 sequential register writes exhaust a 100-node budget spent
// across the whole check and decide within it spent per action.
func TestOneShotFeedBudget(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		c := trace.ClientID(fmt.Sprintf("w%d", i))
		in := adt.WriteInput(fmt.Sprint(i))
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.WriteOutput()))
	}
	ctx := context.Background()
	engines := []struct {
		name     string
		sentinel error
		check    func(opts ...check.Option) (bool, int, error)
	}{
		{"lin.Check", lin.ErrBudget, func(opts ...check.Option) (bool, int, error) {
			r, err := lin.Check(ctx, adt.Register{}, tr, opts...)
			return r.OK, r.Nodes, err
		}},
		{"slin.CheckLin", ErrBudget, func(opts ...check.Option) (bool, int, error) {
			r, err := CheckLin(ctx, adt.Register{}, tr, opts...)
			return r.OK, r.Nodes, err
		}},
	}
	for _, e := range engines {
		if _, _, err := e.check(check.WithBudget(100)); !errors.Is(err, e.sentinel) {
			t.Fatalf("%s: one budget of 100 nodes gave %v, want the budget error", e.name, err)
		}
		ok, nodes, err := e.check(check.WithBudget(100), check.WithFeedBudget(true))
		if err != nil || !ok {
			t.Fatalf("%s: 100 nodes per fed action gave %v, %v; want linearizable", e.name, ok, err)
		}
		t.Logf("%s: %d nodes", e.name, nodes)
	}
}
