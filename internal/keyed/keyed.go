// Package keyed owns the keyed checker state both pipelines share
// (DESIGN.md, decision 28). Linearizability is local: a history of a
// product object is linearizable iff every per-key projection is, and
// keys that one multi-key operation touches form a component checked as
// one history. A Set routes each operation to its key's history once, at
// its invocation (Invoke), and answers it through the handle Invoke
// returns (Respond); the history, per its Policy, streams through a live
// lin.Session, keeps its trace for a one-shot pass after the run, or
// both. The caller pairs each response with its invocation, and hands an
// event that breaks a client's alternation to Malformed.
package keyed

import (
	"context"
	"time"

	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// Policy says what a Set keeps per history.
type Policy struct {
	Sessions bool // stream every history through a session opened on its first feed
	Retain   bool // keep every history's trace for a one-shot pass (Check)
}

// Set is the keyed histories of one run, for one goroutine. It reads no
// clock: an owner that times its feeds adds the time with Charge.
type Set struct {
	pol  Policy
	open func(joined bool) *lin.Session
	idx  map[string]int // key → history; a joined key maps to its component's
	hist []history      // first-seen order
	uf   *unionFind     // nil until the first Join
	wall time.Duration
}

// history is one key's, or one component's, checker state.
type history struct {
	key    string // the key, or the component's union-find root
	joined bool
	sess   *lin.Session
	err    error // the session's first error: terminal for this history alone
	notWF  bool  // fed an action Malformed reported: NotLinearizable, final
	nodes  int   // a dead or ill-formed history's nodes (its session is dropped)
	acts   int64 // actions fed
	ops    int64 // of them responses
	tr     trace.Trace
}

// Op is an open operation's handle (DESIGN.md, decision 37): its
// history and its session's lin.Op.
type Op struct {
	h  int
	op lin.Op
}

// Input returns the operation's input.
func (o Op) Input() trace.Value { return o.op.Input }

// New returns an empty Set; open(joined) opens a key's or component's session.
func New(pol Policy, open func(joined bool) *lin.Session) *Set {
	return &Set{pol: pol, open: open, idx: map[string]int{}}
}

// Invoke routes client c's invocation of in to key's history, created on
// its first feed, and returns the operation's handle: its Respond goes to
// the same history without a second routing. The caller vouches that c
// has no operation open in key's history.
func (s *Set) Invoke(key string, c trace.ClientID, in trace.Value) Op {
	i := s.route(key)
	h := &s.hist[i]
	h.acts++
	if s.pol.Retain {
		h.tr = append(h.tr, trace.Invoke(c, 1, in))
	}
	op := Op{h: i, op: lin.Op{Client: c, Input: in}}
	if s.live(h) {
		var err error
		op.op, err = h.sess.Invoke(c, in)
		h.fail(err)
	}
	return op
}

// Respond routes the response out to op, open since its Invoke on this set.
func (s *Set) Respond(op Op, out trace.Value) {
	h := &s.hist[op.h]
	h.acts++
	h.ops++
	if s.pol.Retain {
		h.tr = append(h.tr, trace.Response(op.op.Client, 1, op.op.Input, out))
	}
	if s.live(h) {
		h.fail(h.sess.Respond(op.op, out))
	}
}

// Malformed routes a to key's history as an action that breaks its
// client's alternation of invocations and responses, which the caller saw
// and no one session can: the history is NotLinearizable, final, and its
// session is fed nothing more.
func (s *Set) Malformed(key string, a trace.Action) {
	h := &s.hist[s.route(key)]
	h.acts++
	if a.Kind == trace.Res {
		h.ops++
	}
	if s.pol.Retain {
		h.tr = append(h.tr, a)
	}
	if h.sess != nil {
		h.nodes, h.sess = h.sess.Nodes(), nil
	}
	h.notWF = true
}

// route returns key's history, created on its first feed.
func (s *Set) route(key string) int {
	if i, ok := s.idx[key]; ok {
		return i
	}
	root, joined := key, false
	if s.uf != nil {
		if _, joined = s.uf.parent[key]; joined {
			root = s.uf.root(key)
		}
	}
	i, ok := s.idx[root]
	if !ok {
		i = len(s.hist)
		s.hist = append(s.hist, history{key: root, joined: joined})
		s.idx[root] = i
	}
	s.idx[key] = i
	return i
}

// live reports whether h's session is fed, opening it on the first feed.
func (s *Set) live(h *history) bool {
	if !s.pol.Sessions || h.err != nil || h.notWF {
		return false
	}
	if h.sess == nil {
		h.sess = s.open(h.joined)
	}
	return true
}

// fail makes a non-nil err the history's terminal error: a dead session
// only answers its error, so it is dropped.
func (h *history) fail(err error) {
	if err != nil {
		h.err = err
		h.nodes, h.sess = h.sess.Nodes(), nil
	}
}

// Join merges a's and b's components. After either one's first feed it
// would split a history already being checked: a caller bug, it panics.
func (s *Set) Join(a, b string) {
	if s.uf == nil {
		s.uf = &unionFind{parent: map[string]string{}}
	}
	ra, rb := s.uf.root(a), s.uf.root(b)
	_, fedA := s.idx[ra]
	if _, fedB := s.idx[rb]; fedA || fedB {
		panic("keyed: join of " + a + " and " + b + " after a first feed")
	}
	if ra != rb {
		s.uf.parent[rb] = ra
	}
}

// Joined reports whether key was ever joined.
func (s *Set) Joined(key string) bool {
	if s.uf == nil {
		return false
	}
	_, ok := s.uf.parent[key]
	return ok
}

// Charge adds d to the set's wall.
func (s *Set) Charge(d time.Duration) { s.wall += d }

// Traces calls fn with every retained trace in first-seen order.
func (s *Set) Traces(fn func(key string, joined bool, t trace.Trace)) {
	for _, h := range s.hist {
		if h.tr != nil {
			fn(h.key, h.joined, h.tr)
		}
	}
}

// Report is one pass's verdict and totals over every history of a Set.
type Report struct {
	// Verdict is NotLinearizable if any history is, else Unknown if any
	// errored, else Linearizable; Key names the first such history in
	// first-seen order (a component by its root), Reason says why, and Err
	// is an Unknown history's error.
	Verdict             check.Verdict
	Key, Reason         string
	Err                 error
	Histories           int // a component counts once
	Actions, Ops, Nodes int64
	// Components, ComponentOps and LargestComponent count the histories
	// joins made, JoinedKeys every key ever joined.
	Components, JoinedKeys         int
	ComponentOps, LargestComponent int64
	Wall                           time.Duration // what the owner charged
}

// Report reads every live session's verdict.
func (s *Set) Report() Report {
	return s.report(func(i int) (lin.Result, error) {
		if h := &s.hist[i]; h.sess == nil {
			return lin.Result{OK: h.err == nil, Nodes: h.nodes}, h.err
		}
		return s.hist[i].sess.Result()
	})
}

// Check decides every retained trace one-shot, one(t, joined) a history,
// on check.Parallel's pool of workers (0: GOMAXPROCS). Every history is
// decided whatever the others' verdicts; only ctx's end stops the pass.
func (s *Set) Check(ctx context.Context, workers int, one func(t trace.Trace, joined bool) (lin.Result, error)) Report {
	type outcome struct {
		r    lin.Result
		err  error
		done bool
	}
	outs, stop := check.Parallel(ctx, s.hist, workers, func(_ int, h history) (outcome, error) {
		r, err := one(h.tr, h.joined)
		return outcome{r, err, true}, nil
	})
	return s.report(func(i int) (lin.Result, error) {
		if !outs[i].done {
			return lin.Result{}, stop
		}
		return outs[i].r, outs[i].err
	})
}

// report folds every history's result in first-seen order.
func (s *Set) report(result func(i int) (lin.Result, error)) Report {
	rep := Report{Verdict: check.Linearizable, Histories: len(s.hist), Wall: s.wall}
	if s.uf != nil {
		rep.JoinedKeys = len(s.uf.parent)
	}
	for i, h := range s.hist {
		r, err := result(i)
		if h.notWF && err == nil {
			r.OK, r.Reason = false, "trace is not well-formed"
		}
		rep.Actions += h.acts
		rep.Ops += h.ops
		rep.Nodes += int64(r.Nodes)
		if h.joined {
			rep.Components++
			rep.ComponentOps += h.ops
			rep.LargestComponent = max(rep.LargestComponent, h.ops)
		}
		switch {
		case err != nil:
			if rep.Verdict == check.Linearizable {
				rep.Verdict, rep.Key, rep.Reason, rep.Err = check.Unknown, h.key, err.Error(), err
			}
		case !r.OK && rep.Verdict != check.NotLinearizable:
			rep.Verdict, rep.Key, rep.Reason, rep.Err = check.NotLinearizable, h.key, r.Reason, nil
		}
	}
	return rep
}

// unionFind merges keys into components.
type unionFind struct{ parent map[string]string }

// root returns key's component root, path-compressing, and makes a key
// it has never seen a component of its own.
func (u *unionFind) root(key string) string {
	switch p, ok := u.parent[key]; {
	case !ok:
		u.parent[key] = key
	case p != key:
		u.parent[key] = u.root(p)
	}
	return u.parent[key]
}
