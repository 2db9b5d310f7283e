package lin

import (
	"repro/internal/adt"
	"repro/internal/trace"
)

// fastConsensus is the streaming consensus fast path (DESIGN.md,
// decision 15). Inside the distinct-inputs, grammar-valid fragment the
// ADT collapses the check to one condition: every responded operation
// must output d(w) for a single value w that some proposal invoked
// before the first deciding response carries. Sufficiency is witnessed
// constructively — linearize the earliest-invoked proposal of w first
// (the head), then every other responded operation in response order;
// the head drives the state to w, every later operation outputs d(w),
// and Validity holds because the head is invoked before the first
// response and each member before its own. At a quiescent cut
// (DESIGN.md, decisions 26 and 35) every linearization starts with a
// proposal of w and so ends in state w — or, before any operation, in
// ⊥ — and the core restarts there, keeping only w.
type fastConsensus struct {
	witness bool
	// props maps an untagged proposal value to its earliest propose until
	// the first deciding response; it is dead, and nil, after.
	props   map[trace.Value]conProp
	decided bool
	val     trace.Value // the decided value, once decided
	headIn  trace.Value // input of the linearization head
	resps   []conMember // witness: responded operations, response order
	cut     [1]adt.State
}

type conProp struct {
	in trace.Value
}

type conMember struct {
	in  trace.Value
	res int
}

func newFastConsensus(witness bool) *fastConsensus {
	return &fastConsensus{witness: witness, props: map[trace.Value]conProp{}}
}

// Inv implements FastChecker; every slot is 0.
func (c *fastConsensus) Inv(in trace.Value, idx int) (int32, FastStatus) {
	v, ok := adt.ProposalOf(adt.Untag(in))
	if !ok {
		return 0, FastExit // grammar-invalid proposal; exact semantics differ
	}
	if _, have := c.props[v]; !c.decided && !have {
		c.props[v] = conProp{in: in}
	}
	return 0, FastOK
}

// Res implements FastChecker.
func (c *fastConsensus) Res(in, out trace.Value, _ int32, invIdx, idx int) FastStatus {
	w, ok := adt.DecisionOf(out)
	if !ok {
		return FastReject // proposals can only ever output "d:x"
	}
	if !c.decided {
		p, proposed := c.props[w]
		if !proposed {
			// The linearization head must be a proposal of w invoked
			// before the first deciding response; none exists.
			return FastReject
		}
		c.decided, c.val, c.headIn, c.props = true, w, p.in, nil
	} else if w != c.val {
		return FastReject // two distinct decisions defeat any single head
	}
	if c.witness {
		c.resps = append(c.resps, conMember{in: in, res: idx})
	}
	return FastOK
}

// cutStates implements cutter: the decided value, as adt.Consensus
// folds it; the core restarts from it.
func (c *fastConsensus) cutStates() ([]adt.State, bool) {
	c.cut[0] = adt.Consensus{}.Empty()
	if c.decided {
		c.cut[0] = adt.State(c.val)
	}
	return c.cut[:], true
}

// cutSeed implements cutter: this core always lists its states.
func (c *fastConsensus) cutSeed() trace.Trace { return nil }

// Witness implements FastChecker (see the type comment for the
// construction).
func (c *fastConsensus) Witness() Witness {
	if !c.witness {
		return nil
	}
	w := Witness{}
	if !c.decided {
		return w
	}
	hist := trace.History{c.headIn}
	for _, m := range c.resps {
		if m.in == c.headIn {
			w[m.res] = hist[:1].Clone()
			continue
		}
		hist = append(hist, m.in)
		w[m.res] = hist.Clone()
	}
	return w
}
