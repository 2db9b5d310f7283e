// The checker side of the capture harness: routing the merged action
// stream into the PR 3 checker sessions — one session per object. The
// keyed map is a product of per-key registers and the set a product of
// per-member flags, so both split into independent per-key histories by
// the Herlihy–Wing locality theorem (a history of a product object is
// linearizable iff every per-component projection is). The map's
// per-key registers and the mutex stream live through fast-path
// sessions; the set (no fast path) streams through exact sessions,
// viable since the breadth engine's frontier is bounded by the
// operations overlapping on a key (decision 20); only the
// queue retains its trace and checks one-shot after the run, because
// its fast path is one-shot by construction.
package capture

import (
	"context"
	"fmt"
	"strings"
	"time"

	speclin "repro"
	"repro/internal/adt"
	"repro/internal/trace"
)

// router streams actions into per-key checker sessions (keyOf nil means
// one session under the single key "") and retains the per-key traces
// for the post-run one-shot checks (the queue fast path, ClassicalLin).
type router struct {
	ctx      context.Context
	spec     speclin.CheckSpec
	opts     []speclin.Option
	keyOf    func(trace.Value) string
	sessions bool

	sess  map[string]*speclin.Session
	errs  map[string]error
	trs   map[string]trace.Trace
	order []string
}

func newRouter(ctx context.Context, spec speclin.CheckSpec, keyOf func(trace.Value) string, sessions bool, opts ...speclin.Option) *router {
	return &router{
		ctx: ctx, spec: spec, opts: opts, keyOf: keyOf, sessions: sessions,
		sess: map[string]*speclin.Session{},
		errs: map[string]error{},
		trs:  map[string]trace.Trace{},
	}
}

func (rt *router) key(in trace.Value) string {
	if rt.keyOf == nil {
		return ""
	}
	return rt.keyOf(in)
}

// feed routes one merged action. Session errors (budget exhaustion,
// cancellation) are terminal per key and recorded, not returned: the
// hunt keeps draining the other keys and reports Unknown for this one.
func (rt *router) feed(a trace.Action) {
	k := rt.key(a.Input)
	if _, seen := rt.trs[k]; !seen {
		rt.order = append(rt.order, k)
	}
	rt.trs[k] = append(rt.trs[k], a)
	if !rt.sessions || rt.errs[k] != nil {
		return
	}
	s, ok := rt.sess[k]
	if !ok {
		var err error
		s, err = speclin.NewSession(rt.ctx, rt.spec, rt.opts...)
		if err != nil {
			rt.errs[k] = err
			return
		}
		rt.sess[k] = s
	}
	if err := s.Feed(a); err != nil {
		rt.errs[k] = err
	}
}

// RouteReport aggregates the per-key verdicts of one routed check pass.
type RouteReport struct {
	// Verdict is NotLinearizable if any key is, else Unknown if any key
	// errored (budget, cancellation), else Linearizable.
	Verdict speclin.Verdict
	// Reason names the first offending key on a negative verdict (or
	// the first error on Unknown).
	Reason string
	// Keys is the number of per-key histories checked.
	Keys int
	// Nodes is the cumulative search nodes across keys; on the fast
	// paths it equals the fed action count, so Nodes == Actions is the
	// signature of a run that never left the specialized fragments.
	Nodes int64
	// Actions is the total number of routed actions.
	Actions int64
	// Wall is the cumulative checking wall reported by the sessions.
	Wall time.Duration
}

// reports collects every live session's verdict.
func (rt *router) reports() RouteReport {
	out := RouteReport{Verdict: speclin.Linearizable, Keys: len(rt.order)}
	for _, k := range rt.order {
		out.Actions += int64(len(rt.trs[k]))
	}
	for _, k := range rt.order {
		if err := rt.errs[k]; err != nil {
			if out.Verdict == speclin.Linearizable {
				out.Verdict = speclin.Unknown
				out.Reason = fmt.Sprintf("key %q: %v", k, err)
			}
			continue
		}
		s := rt.sess[k]
		if s == nil {
			continue
		}
		rep, err := s.Report()
		out.Nodes += int64(rep.Nodes)
		out.Wall += rep.Wall
		switch {
		case err != nil:
			if out.Verdict == speclin.Linearizable {
				out.Verdict = speclin.Unknown
				out.Reason = fmt.Sprintf("key %q: %v", k, err)
			}
		case rep.Verdict == speclin.NotLinearizable:
			out.Verdict = speclin.NotLinearizable
			out.Reason = fmt.Sprintf("key %q: %s", k, rep.Reason)
			return out
		}
	}
	return out
}

// oneShot runs a one-shot Check over every retained per-key trace in
// the given mode (the queue's post-run fast path, or ClassicalLin on
// the captured histories — their inputs are unique by construction, so
// Theorem 1 grounds the classical verdicts).
func (rt *router) oneShot(ctx context.Context, mode speclin.Mode, opts ...speclin.Option) RouteReport {
	out := RouteReport{Verdict: speclin.Linearizable, Keys: len(rt.order)}
	for _, k := range rt.order {
		out.Actions += int64(len(rt.trs[k]))
	}
	spec := rt.spec
	spec.Mode = mode
	for _, k := range rt.order {
		tr := rt.trs[k]
		rep, err := speclin.Check(ctx, spec, tr, opts...)
		out.Nodes += int64(rep.Nodes)
		out.Wall += rep.Wall
		switch {
		case err != nil:
			if out.Verdict == speclin.Linearizable {
				out.Verdict = speclin.Unknown
				out.Reason = fmt.Sprintf("key %q: %v", k, err)
			}
		case rep.Verdict == speclin.NotLinearizable:
			out.Verdict = speclin.NotLinearizable
			out.Reason = fmt.Sprintf("key %q: %s", k, rep.Reason)
			return out
		}
	}
	return out
}

// mapKeyOf extracts the routing key from a captured map input: the tag
// prefix up to the first "." (mapWriteInput/mapReadInput build tags as
// "key.uniq").
func mapKeyOf(in trace.Value) string {
	if i := strings.Index(in, adt.TagSep); i >= 0 {
		tag := in[i+len(adt.TagSep):]
		if j := strings.IndexByte(tag, '.'); j >= 0 {
			return tag[:j]
		}
		return tag
	}
	return ""
}

// setKeyOf extracts the routing key from a captured set input: the
// member value ("add:v", "rm:v", "has:v" untagged).
func setKeyOf(in trace.Value) string {
	_, arg, _ := strings.Cut(string(adt.Untag(in)), ":")
	return arg
}

// Captured map inputs: the tag carries "key.uniq" so the router can
// split per key; the untagged input stays register grammar. Written
// values embed the globally unique uniq, meeting the register fast
// path's distinct-values fragment.

func mapWriteInput(key, uniq string) trace.Value {
	return adt.Tag(adt.WriteInput(trace.Value(uniq)), key+"."+uniq)
}

func mapReadInput(key, uniq string) trace.Value {
	return adt.Tag(adt.ReadInput(), key+"."+uniq)
}
