// Package diffcheck is the differential testing harness of the checker
// engines (DESIGN.md, decisions 21, 25, 29 and 31): it runs every way
// the repo has of deciding a property on the SAME trace and fails loudly
// on any disagreement — verdicts, witness validity, or prefix-verdict
// agreement of incremental sessions. For Lin that is the one frontier
// engine in its three modes (one-shot with response lookahead, online
// session, online session without witnesses — the chain-free
// configuration the pipelines run) against the oracles that share no
// code with it: the string-keyed lin reference, the string-keyed slin
// reference at m = 1 (Theorem 2) and the classical search (Theorem 1);
// slin(1,2), which runs the same engine, must match it node for node.
// For SLin it is the one session engine, one-shot and online, against
// the string-keyed depth-first reference.
//
// The harness exists because a soundness bug in a pruning rule does not
// crash: it silently turns the checker into a liar, accepting
// non-linearizable traces (missed dependent orders are invisible) or
// rejecting linearizable ones (over-pruning kills the witnessing order).
// Every property test and fuzz target of the lookahead and of the
// configuration identities therefore routes through this package.
//
// All entry points return nil when every engine variant agrees, an
// *Disagreement when two variants differ, and the underlying checker
// error (budget exhaustion, cancellation, ...) unchanged when any
// variant cannot decide — callers with ample budgets treat that as a
// hard failure, fuzz targets skip it.
package diffcheck

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
)

// Disagreement reports two engine variants deciding the same trace
// differently (or an engine producing an invalid witness).
type Disagreement struct {
	// Trace is the input both engines saw.
	Trace trace.Trace
	// Detail describes the disagreement.
	Detail string
}

// Error implements error.
func (d *Disagreement) Error() string {
	return fmt.Sprintf("diffcheck: %s\ntrace: %v", d.Detail, d.Trace)
}

func disagree(t trace.Trace, format string, args ...any) error {
	return &Disagreement{Trace: t, Detail: fmt.Sprintf(format, args...)}
}

// variant is one way of running an engine on a whole trace: one-shot, or
// through a session fed every action — which cannot know that no more is
// coming.
type variant struct {
	name    string
	session bool
	opts    []check.Option
}

// linMatrix is the three ways the one Lin engine runs: one-shot (with
// response lookahead, DESIGN.md decision 21), as an online session
// retaining the commit chain for witnesses, and as the chain-free online
// session the smr and capture pipelines run.
var linMatrix = []variant{
	{"one-shot", false, nil},
	{"session", true, nil},
	{"session/nowitness", true, []check.Option{check.WithWitness(false)}},
}

// slinMatrix is the one SLin engine (DESIGN.md, decision 25) run
// one-shot by slin.Check — configuration identity set from the whole
// trace — and online by slin.NewSession — position-free until the first
// order-sensitive abort, then ordered after a replay (decisions 29 and
// 31).
var slinMatrix = []variant{
	{"one-shot", false, nil},
	{"session", true, nil},
}

func (v variant) lin(ctx context.Context, f adt.Folder, t trace.Trace, extra []check.Option) (lin.Result, error) {
	opts := append(extra[:len(extra):len(extra)], v.opts...)
	if !v.session {
		return lin.Check(ctx, f, t, opts...)
	}
	s := lin.NewSession(ctx, f, opts...)
	if err := s.FeedAll(t); err != nil {
		return lin.Result{}, err
	}
	return s.Result()
}

func (v variant) slin(ctx context.Context, f adt.Folder, rinit slin.RInit, m, n int, t trace.Trace, extra []check.Option) (slin.Result, error) {
	opts := append(extra[:len(extra):len(extra)], v.opts...)
	if !v.session {
		return slin.Check(ctx, f, rinit, m, n, t, opts...)
	}
	s, err := slin.NewSession(ctx, f, rinit, m, n, opts...)
	if err != nil {
		return slin.Result{}, err
	}
	if err := s.FeedAll(t); err != nil {
		return slin.Result{}, err
	}
	return s.Result()
}

// refBudget bounds the string-keyed references inside Lin and SLin: they
// copy chains per node, so traces they cannot decide this cheaply are
// left to the other oracles.
const refBudget = 200_000

// Lin cross-checks the three modes of the lin engine on t, and those
// with the oracles that share no code with it: lin.CheckReference and
// slin.CheckReference at m = 1 (Theorem 2), each under its own small
// budget and skipped when it exhausts it, and, when the trace's inputs
// are pairwise distinct, lin.CheckClassical (Theorem 1). All verdicts
// must agree and every positive verdict's witness must satisfy
// lin.VerifyWitness. slin.CheckLin runs lin's engine, so Theorem 2 holds
// there node for node: its verdict and Nodes must equal one-shot
// lin.Check's. extra options (budgets, deadlines) apply to every variant
// but the references; every variant runs the exact engine.
func Lin(ctx context.Context, f adt.Folder, t trace.Trace, extra ...check.Option) error {
	type outcome struct {
		name string
		ok   bool
	}
	extra = exact(extra)
	var got []outcome
	var oneShot lin.Result
	for _, v := range linMatrix {
		res, err := v.lin(ctx, f, t, extra)
		if err != nil {
			return fmt.Errorf("diffcheck %s: %w", v.name, err)
		}
		if res.OK && len(res.Witness) > 0 {
			if werr := lin.VerifyWitness(f, t, res.Witness); werr != nil {
				return disagree(t, "%s produced an invalid witness: %v", v.name, werr)
			}
		}
		if !v.session {
			oneShot = res
		}
		got = append(got, outcome{v.name, res.OK})
	}
	viaSLin, err := slin.CheckLin(ctx, f, t, extra...)
	if err != nil {
		return fmt.Errorf("diffcheck slin(1,2): %w", err)
	}
	if viaSLin.OK != oneShot.OK || viaSLin.Nodes != oneShot.Nodes {
		return disagree(t, "Theorem 2 node for node: lin.Check %v in %d nodes, slin.CheckLin %v in %d",
			oneShot.OK, oneShot.Nodes, viaSLin.OK, viaSLin.Nodes)
	}
	if ref, err := lin.CheckReference(f, t, check.WithBudget(refBudget)); err == nil {
		got = append(got, outcome{"reference", ref.OK})
	} else if !errors.Is(err, lin.ErrBudget) {
		return fmt.Errorf("diffcheck reference: %w", err)
	}
	if ref, err := slin.CheckReference(f, slin.UniversalRInit{}, 1, 2, t, check.WithBudget(refBudget)); err == nil {
		got = append(got, outcome{"slin reference(1,2)", ref.OK})
	} else if !errors.Is(err, slin.ErrBudget) {
		return fmt.Errorf("diffcheck slin reference(1,2): %w", err)
	}
	if uniqueInputs(t) {
		cl, err := lin.CheckClassical(ctx, f, t, extra...)
		if err != nil {
			return fmt.Errorf("diffcheck classical: %w", err)
		}
		got = append(got, outcome{"classical", cl.OK})
	}
	base := got[0]
	for _, o := range got[1:] {
		if o.ok != base.ok {
			return disagree(t, "verdict disagreement: %s=%v, %s=%v", base.name, base.ok, o.name, o.ok)
		}
	}
	return nil
}

// exact is opts with check.WithExact(true): the harness's variants of an
// engine run the exact one, whatever fast-path core the folder has.
func exact(opts []check.Option) []check.Option {
	return append(opts[:len(opts):len(opts)], check.WithExact(true))
}

// uniqueInputs reports whether no two invocations of t carry the same
// input — the regime in which the classical and the new definition
// coincide (Theorem 1; TestRepeatedEventsDivergence has the
// counterexample beyond it).
func uniqueInputs(t trace.Trace) bool {
	for _, n := range t.InputsBeforeMultiset(len(t)) {
		if n > 1 {
			return false
		}
	}
	return true
}

// LinPrefixes cross-checks the incremental session against one-shot
// Check on EVERY prefix of t: the session's running verdict after k
// actions must equal Check's verdict of t[:k]. Prefixes are where
// operations never respond, the case the one-shot lookahead must exempt.
// An online slin.NewSession at (1,2), which runs lin's engine, must match
// the lin session's Verdict and Nodes after every action (Theorem 2,
// node for node). Every variant runs the exact engine.
func LinPrefixes(ctx context.Context, f adt.Folder, t trace.Trace, extra ...check.Option) error {
	extra = exact(extra)
	sess := lin.NewSession(ctx, f, extra...)
	viaSLin, err := slin.NewSession(ctx, f, slin.UniversalRInit{}, 1, 2, extra...)
	if err != nil {
		return err
	}
	for k, a := range t {
		if err := sess.Feed(a); err != nil {
			return fmt.Errorf("diffcheck session feed %d: %w", k, err)
		}
		if err := viaSLin.Feed(a); err != nil {
			return fmt.Errorf("diffcheck slin(1,2) session feed %d: %w", k, err)
		}
		if sess.Verdict() != viaSLin.Verdict() || sess.Nodes() != viaSLin.Nodes() {
			return disagree(t[:k+1], "prefix %d, Theorem 2 node for node: lin session %v in %d nodes, slin(1,2) session %v in %d",
				k+1, sess.Verdict(), sess.Nodes(), viaSLin.Verdict(), viaSLin.Nodes())
		}
		got, err := sess.Result()
		if err != nil {
			return fmt.Errorf("diffcheck session prefix %d: %w", k+1, err)
		}
		want, err := lin.Check(ctx, f, t[:k+1], extra...)
		if err != nil {
			return fmt.Errorf("diffcheck one-shot prefix %d: %w", k+1, err)
		}
		if got.OK != want.OK {
			return disagree(t[:k+1], "prefix %d: session=%v, one-shot=%v", k+1, got.OK, want.OK)
		}
		if got.OK && len(got.Witness) > 0 {
			if werr := lin.VerifyWitness(f, t[:k+1], got.Witness); werr != nil {
				return disagree(t[:k+1], "session prefix %d witness invalid: %v", k+1, werr)
			}
		}
	}
	return nil
}

// Fastpath cross-checks the ADT-specialized fast-path checkers
// (DESIGN.md, decision 15) against the exact engines on t: one-shot
// lin.Check vs lin.Check with check.WithExact (verdicts must agree; a
// positive fast verdict's witness must satisfy lin.VerifyWitness), then
// the fast session's running verdict against the exact one-shot on every
// prefix.
// Traces outside the specialized fragments exercise the transparent
// fallback paths and must agree identically. extra options (budgets,
// deadlines) apply to every variant; budgets must be ample — the fast
// path spends none, so only the exact side can exhaust one.
func Fastpath(ctx context.Context, f adt.Folder, t trace.Trace, extra ...check.Option) error {
	// lin.VerifyWitness validates inputs through f.Apply, which rejects
	// grammar-invalid inputs that the search engines happily fold (they
	// never call ValidInput); witnesses are only checkable on the prefix
	// of the trace whose inputs all parse.
	verifiable := make([]bool, len(t)+1)
	verifiable[0] = true
	for i, a := range t {
		verifiable[i+1] = verifiable[i] && (a.Kind != trace.Inv || f.ValidInput(a.Input))
	}
	fast, err := lin.Check(ctx, f, t, extra...)
	if err != nil {
		return fmt.Errorf("diffcheck fastpath one-shot: %w", err)
	}
	ex, err := lin.Check(ctx, f, t, exact(extra)...)
	if err != nil {
		return fmt.Errorf("diffcheck exact one-shot: %w", err)
	}
	if fast.OK != ex.OK {
		return disagree(t, "fastpath verdict disagreement: fast=%v (%s), exact=%v (%s)",
			fast.OK, fast.Reason, ex.OK, ex.Reason)
	}
	if fast.OK && len(fast.Witness) > 0 && verifiable[len(t)] {
		if werr := lin.VerifyWitness(f, t, fast.Witness); werr != nil {
			return disagree(t, "fastpath produced an invalid witness: %v", werr)
		}
	}
	sess := lin.NewSession(ctx, f, extra...)
	for k, a := range t {
		if err := sess.Feed(a); err != nil {
			return fmt.Errorf("diffcheck fast session feed %d: %w", k, err)
		}
		got, err := sess.Result()
		if err != nil {
			return fmt.Errorf("diffcheck fast session prefix %d: %w", k+1, err)
		}
		want, err := lin.Check(ctx, f, t[:k+1], exact(extra)...)
		if err != nil {
			return fmt.Errorf("diffcheck exact prefix %d: %w", k+1, err)
		}
		if got.OK != want.OK {
			return disagree(t[:k+1], "fast session prefix %d: session=%v (%s), one-shot=%v (%s)",
				k+1, got.OK, got.Reason, want.OK, want.Reason)
		}
		if got.OK && len(got.Witness) > 0 && verifiable[k+1] {
			if werr := lin.VerifyWitness(f, t[:k+1], got.Witness); werr != nil {
				return disagree(t[:k+1], "fast session prefix %d witness invalid: %v", k+1, werr)
			}
		}
	}
	return nil
}

// Ops cross-checks the operation path (DESIGN.md, decision 37): over the
// longest well-formed prefix of t — Invoke and Respond trust their caller
// to pair each response with its invocation — a session driven by
// Invoke and Respond, the caller keeping each client's open Op, must
// equal one Feed drives after every action in verdict, result (reason
// and witness included), nodes and length, and fail alike. extra options
// apply to both.
func Ops(ctx context.Context, f adt.Folder, t trace.Trace, extra ...check.Option) error {
	fed, ops := lin.NewSession(ctx, f, extra...), lin.NewSession(ctx, f, extra...)
	open := map[trace.ClientID]lin.Op{}
	for k, a := range t {
		op, busy := open[a.Client]
		var err error
		switch {
		case a.Kind == trace.Inv && !busy:
			open[a.Client], err = ops.Invoke(a.Client, a.Input)
		case a.Kind == trace.Res && busy && op.Input == a.Input:
			delete(open, a.Client)
			err = ops.Respond(op, a.Output)
		default:
			return nil // ill-formed from here: Feed's alone to judge
		}
		ferr := fed.Feed(a)
		if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
			return disagree(t[:k+1], "op session error %v, feed session error %v", err, ferr)
		}
		if err != nil {
			return fmt.Errorf("diffcheck op session feed %d: %w", k, err)
		}
		got, _ := ops.Result()
		want, _ := fed.Result()
		if got.OK != want.OK || got.Reason != want.Reason || got.Nodes != want.Nodes ||
			fmt.Sprint(got.Witness) != fmt.Sprint(want.Witness) || ops.Verdict() != fed.Verdict() || ops.Len() != fed.Len() {
			return disagree(t[:k+1], "op session prefix %d: %+v, feed session %+v", k+1, got, want)
		}
	}
	return nil
}

// FastpathSLin cross-checks the SLin(1,n) fast-path session — sound by
// Theorem 2, which collapses SLin(1,n) restricted to sig onto Lin —
// against the exact slin engines: the fast session's running verdict
// after k actions must equal the exact one-shot slin.Check of t[:k+1].
// Traces with switch actions exercise the session's fall-back-and-replay
// path and must agree identically. extra options apply to every variant;
// budgets must be ample — the fast path spends none, so only the exact
// side can exhaust one.
func FastpathSLin(ctx context.Context, f adt.Folder, rinit slin.RInit, n int, t trace.Trace, extra ...check.Option) error {
	sess, err := slin.NewSession(ctx, f, rinit, 1, n, extra...)
	if err != nil {
		return fmt.Errorf("diffcheck slin fast session: %w", err)
	}
	for k, a := range t {
		if err := sess.Feed(a); err != nil {
			return fmt.Errorf("diffcheck slin fast session feed %d: %w", k, err)
		}
		got, err := sess.Result()
		if err != nil {
			return fmt.Errorf("diffcheck slin fast session prefix %d: %w", k+1, err)
		}
		want, err := slin.Check(ctx, f, rinit, 1, n, t[:k+1], extra...)
		if err != nil {
			return fmt.Errorf("diffcheck slin exact prefix %d: %w", k+1, err)
		}
		if got.OK != want.OK {
			return disagree(t[:k+1], "slin fast session prefix %d: session=%v (%s), one-shot=%v (%s)",
				k+1, got.OK, got.Reason, want.OK, want.Reason)
		}
	}
	return nil
}

// SLin cross-checks the SLin engine variants on t — one-shot and online
// — and those with slin.CheckReference, the string-keyed depth-first
// search that shares no code with them (under its own small budget;
// skipped when it exhausts it). All verdicts must agree, and every
// witness of the positive runs must satisfy slin.VerifyWitness. extra
// options (budgets, deadlines) apply to every variant but the reference.
func SLin(ctx context.Context, f adt.Folder, rinit slin.RInit, m, n int, t trace.Trace, temporal bool, extra ...check.Option) error {
	type outcome struct {
		name string
		res  slin.Result
	}
	var got []outcome
	order := check.WithTemporalAbortOrder(temporal)
	extra = append(exact(extra), order)
	for _, v := range slinMatrix {
		res, err := v.slin(ctx, f, rinit, m, n, t, extra)
		if err != nil {
			return fmt.Errorf("diffcheck %s: %w", v.name, err)
		}
		got = append(got, outcome{v.name, res})
	}
	if ref, err := slin.CheckReference(f, rinit, m, n, t, order, check.WithBudget(refBudget)); err == nil {
		got = append(got, outcome{"reference", ref})
	} else if !errors.Is(err, slin.ErrBudget) {
		return fmt.Errorf("diffcheck reference: %w", err)
	}
	for _, o := range got {
		if o.res.OK != got[0].res.OK {
			return disagree(t, "verdict disagreement (m=%d n=%d temporal=%v): %s=%v, %s=%v",
				m, n, temporal, got[0].name, got[0].res.OK, o.name, o.res.OK)
		}
		for _, w := range o.res.Witnesses {
			if werr := slin.VerifyWitness(f, rinit, m, n, t, w, temporal); werr != nil {
				return disagree(t, "%s produced an invalid witness: %v", o.name, werr)
			}
		}
	}
	return nil
}
