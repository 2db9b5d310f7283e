// Package keyed owns the keyed checker state both pipelines share
// (DESIGN.md, decision 28). Linearizability is local: a history of a
// product object is linearizable iff every per-key projection is, and
// keys that one multi-key operation touches form a component checked as
// one history. A Set routes each action to its key's history, which per
// its Policy streams through a live lin.Session, keeps its trace for a
// one-shot pass after the run, or both.
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
	nodes  int   // a dead session's nodes (the session itself is dropped)
	acts   int64 // actions fed
	ops    int64 // of them responses
	tr     trace.Trace
}

// New returns an empty Set; open(joined) opens a key's or component's session.
func New(pol Policy, open func(joined bool) *lin.Session) *Set {
	return &Set{pol: pol, open: open, idx: map[string]int{}}
}

// Feed routes one action to key's history, created on its first feed.
func (s *Set) Feed(key string, a trace.Action) {
	i, ok := s.idx[key]
	if !ok {
		root, joined := key, false
		if s.uf != nil {
			if _, joined = s.uf.parent[key]; joined {
				root = s.uf.root(key)
			}
		}
		if i, ok = s.idx[root]; !ok {
			i = len(s.hist)
			s.hist = append(s.hist, history{key: root, joined: joined})
			s.idx[root] = i
		}
		s.idx[key] = i
	}
	h := &s.hist[i]
	h.acts++
	if a.Kind == trace.Res {
		h.ops++
	}
	if s.pol.Retain {
		h.tr = append(h.tr, a)
	}
	if !s.pol.Sessions || h.err != nil {
		return
	}
	if h.sess == nil {
		h.sess = s.open(h.joined)
	}
	if h.err = h.sess.Feed(a); h.err != nil {
		h.nodes, h.sess = h.sess.Nodes(), nil // a dead session only answers its error
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
