package lin

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// CheckReference decides linearizability under the paper's new definition
// using the original string-keyed, chain-copying search. It is retained as
// a slow executable specification: the optimized Check memoizes on
// incremental digests and mutates its search state in place, and the
// equivalence property tests assert the two return identical verdicts on
// randomized traces (extending experiment E8). New semantic changes land
// here first, then in the optimized checker. Being a specification it
// takes no context and honors only the budget option, which it spends
// over its whole depth-first search.
func CheckReference(f adt.Folder, t trace.Trace, opts ...check.Option) (Result, error) {
	if !t.WellFormed() {
		return Result{OK: false, Reason: "trace is not well-formed"}, nil
	}
	s := &refSearcher{
		f:      f,
		t:      t,
		budget: check.NewSettings(opts...).Budget,
		failed: map[string]bool{},
	}
	ok, err := s.run(0, refChain{f: f}, trace.Multiset{})
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{OK: false, Reason: "no linearization function exists", Nodes: s.nodes}, nil
	}
	w := Witness{}
	for i, k := range s.assigned {
		w[i] = s.best.hist[:k].Clone()
	}
	return Result{OK: true, Witness: w, Nodes: s.nodes}, nil
}

// refChain is the copying commit-history chain of the reference searcher;
// see the optimized chain in lin.go for the shared invariants.
type refChain struct {
	f      adt.Folder
	hist   trace.History
	states []adt.State
	outs   []trace.Value
	used   []bool
}

func (c refChain) len() int { return len(c.hist) }

func (c refChain) state() adt.State {
	if len(c.states) == 0 {
		return c.f.Empty()
	}
	return c.states[len(c.states)-1]
}

// extend returns a copy of c with input in appended.
func (c refChain) extend(in trace.Value) refChain {
	st := c.state()
	n := refChain{f: c.f}
	n.hist = c.hist.Append(in)
	n.states = append(append([]adt.State{}, c.states...), c.f.Step(st, in))
	if len(c.states) == 0 {
		// states[0] (empty history) was implicit; materialize it.
		n.states = append([]adt.State{c.f.Empty()}, n.states...)
	}
	n.outs = append(append([]trace.Value{}, c.outs...), c.f.Out(st, in))
	n.used = append(append([]bool{}, c.used...), false)
	return n
}

// markUsed returns a copy of c with prefix length k marked assigned.
func (c refChain) markUsed(k int) refChain {
	n := c
	n.used = append([]bool{}, c.used...)
	n.used[k-1] = true
	return n
}

// key returns a canonical string encoding of the chain for memoization.
func (c refChain) key() string {
	var b strings.Builder
	for i, v := range c.hist {
		b.WriteString(v)
		if c.used[i] {
			b.WriteByte('*')
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

type refSearcher struct {
	f      adt.Folder
	t      trace.Trace
	budget int
	nodes  int
	failed map[string]bool
	// assigned maps commit (response) indices to the prefix length they
	// claimed, on the successful path; best is the final chain.
	assigned map[int]int
	best     refChain
}

func (s *refSearcher) spend() error {
	s.nodes++
	if s.nodes > s.budget {
		return ErrBudget
	}
	return nil
}

// run processes the trace from action index i with the given chain and
// multiset of invoked-but-uncommitted inputs.
func (s *refSearcher) run(i int, c refChain, avail trace.Multiset) (bool, error) {
	if err := s.spend(); err != nil {
		return false, err
	}
	if i == len(s.t) {
		s.best = c
		if s.assigned == nil {
			s.assigned = map[int]int{}
		}
		return true, nil
	}
	key := strconv.Itoa(i) + "|" + c.key() + "|" + avail.Key()
	if s.failed[key] {
		return false, nil
	}
	a := s.t[i]
	var ok bool
	var err error
	switch a.Kind {
	case trace.Inv:
		na := avail.Clone()
		na.Add(a.Input, 1)
		ok, err = s.run(i+1, c, na)
	case trace.Res:
		ok, err = s.commit(i, c, avail, a)
	default:
		return false, fmt.Errorf("lin: action %v does not belong to sig_T", a)
	}
	if err != nil {
		return false, err
	}
	if !ok {
		s.failed[key] = true
		return false, nil
	}
	return true, nil
}

// commit handles a response action; see the optimized searcher for the
// shared case analysis.
func (s *refSearcher) commit(i int, c refChain, avail trace.Multiset, a trace.Action) (bool, error) {
	for k := 1; k <= c.len(); k++ {
		if c.used[k-1] || c.hist[k-1] != a.Input || c.outs[k-1] != a.Output {
			continue
		}
		ok, err := s.run(i+1, c.markUsed(k), avail)
		if err != nil {
			return false, err
		}
		if ok {
			s.assigned[i] = k
			return true, nil
		}
	}
	return s.extendAndCommit(i, c, avail, a, map[string]bool{})
}

// extendAndCommit explores extensions of the chain drawn from avail.
func (s *refSearcher) extendAndCommit(i int, c refChain, avail trace.Multiset, a trace.Action, visited map[string]bool) (bool, error) {
	if err := s.spend(); err != nil {
		return false, err
	}
	vkey := c.key() + "|" + avail.Key()
	if visited[vkey] {
		return false, nil
	}
	visited[vkey] = true

	// Close: append the response's own input.
	if avail.Count(a.Input) > 0 && s.f.Out(c.state(), a.Input) == a.Output {
		nc := c.extend(a.Input)
		nc = nc.markUsed(nc.len())
		na := avail.Clone()
		na.Add(a.Input, -1)
		ok, err := s.run(i+1, nc, na)
		if err != nil {
			return false, err
		}
		if ok {
			s.assigned[i] = nc.len()
			return true, nil
		}
	}
	// Continue: append some other available input as an intermediate.
	for in, n := range avail {
		if n <= 0 {
			continue
		}
		na := avail.Clone()
		na.Add(in, -1)
		ok, err := s.extendAndCommit(i, c.extend(in), na, a, visited)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
