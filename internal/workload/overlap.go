package workload

import (
	"math/rand"
	"strconv"

	"repro/internal/adt"
	"repro/internal/trace"
)

// OverlapElems is the size of the element universe of an Overlap stream.
const OverlapElems = 4

// Overlap generates the long-pending-operation stream of the exact
// engine's width and cost tests: in one round of shape (k, n), k holder
// clients each invoke a tagged has(v) and stay open while one driver
// client runs n sequential add/rm/has operations over an OverlapElems-element
// set, never adding or removing an element a holder holds; the holders
// then respond with the membership they saw at their invocation. Every
// round is linearizable. Rounds are generated deterministically from the
// source; set membership and operation tags carry across rounds.
type Overlap struct {
	r      *rand.Rand
	member [OverlapElems]bool
	ops    int
}

// NewOverlap returns a stream drawing its choices from r.
func NewOverlap(r *rand.Rand) *Overlap { return &Overlap{r: r} }

func (g *Overlap) tag(in trace.Value) trace.Value {
	g.ops++
	return adt.Tag(in, strconv.Itoa(g.ops))
}

// Round returns the actions of the next round, of shape (k, n), and the
// index of its first holder response (flipping that output leaves the
// round without a linearization, since no driver operation changed the
// held element's membership).
func (g *Overlap) Round(k, n int) (tr trace.Trace, firstHolderRes int) {
	elem := func(e int) trace.Value { return "e" + strconv.Itoa(e) }
	var held [OverlapElems]bool
	holders := make(trace.Trace, k)
	for j := range holders {
		e := g.r.Intn(OverlapElems)
		held[e] = true
		c := trace.ClientID("h" + strconv.Itoa(j))
		in := g.tag(adt.HasInput(elem(e)))
		tr = append(tr, trace.Invoke(c, 1, in))
		holders[j] = trace.Response(c, 1, in, adt.BoolOutput(g.member[e]))
	}
	for j := 0; j < n; j++ {
		e, kind := g.r.Intn(OverlapElems), g.r.Intn(4)
		for kind < 2 && held[e] {
			e = g.r.Intn(OverlapElems)
		}
		var in, out trace.Value
		switch kind {
		case 0:
			in, out = adt.AddInput(elem(e)), adt.BoolOutput(!g.member[e])
			g.member[e] = true
		case 1:
			in, out = adt.RemoveInput(elem(e)), adt.BoolOutput(g.member[e])
			g.member[e] = false
		default:
			in, out = adt.HasInput(elem(e)), adt.BoolOutput(g.member[e])
		}
		in = g.tag(in)
		tr = append(tr, trace.Invoke("d", 1, in), trace.Response("d", 1, in, out))
	}
	return append(tr, holders...), len(tr)
}
