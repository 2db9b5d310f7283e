package main

import (
	"testing"

	"repro/internal/slin"
	"repro/internal/trace"
)

// TestSLinVerdictOrdersFailedInit: a failing interpretation of several
// init actions prints one line per action, in action order, whatever the
// map's iteration order.
func TestSLinVerdictOrdersFailedInit(t *testing.T) {
	res := slin.Result{
		Reason: "no speculative linearization function for some init interpretation",
		FailedInit: map[int]trace.History{
			7: {"p:c"},
			0: {"p:a"},
			3: {"p:b"},
		},
	}
	want := "NOT SLin(2,3): no speculative linearization function for some init interpretation\n" +
		"failing init interpretation:\n" +
		"  action 0 ↦ [p:a]\n" +
		"  action 3 ↦ [p:b]\n" +
		"  action 7 ↦ [p:c]\n"
	for i := 0; i < 20; i++ {
		v := slinVerdict(2, 3, res)
		if v.ok || v.report != want {
			t.Fatalf("report %q, want %q", v.report, want)
		}
	}
}
