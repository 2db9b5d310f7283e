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
// one session under the single key ""). It counts every key's actions
// and keeps a key's trace only when a pass after the run will read it:
// a structure with no streaming core (the queue's one-shot fast path)
// or the ClassicalLin pass. A streamed key's only copy of its history
// is then the session's own replay log. A retained trace is allocated
// once when the run's length is known beforehand (expect), and the
// one-shot passes read it where it lies.
type router struct {
	ctx      context.Context
	spec     speclin.CheckSpec
	opts     []speclin.Option
	keyOf    func(trace.Value) string
	sessions bool
	retain   bool
	// expect is the number of actions an unkeyed, ops-bounded run will
	// route; hunt sets it (0: not known — keyed, or bounded by wall clock).
	expect int

	keys  map[string]*keyState
	order []*keyState // first-seen order
}

// keyState is everything the router holds for one key.
type keyState struct {
	key  string
	sess *speclin.Session
	err  error // terminal for the key: the session could not start or gave up
	n    int64 // actions routed to the key
	tr   trace.Trace
}

// newRouter routes into live sessions when sessions is set; classical
// says a ClassicalLin pass will follow the run.
func newRouter(ctx context.Context, spec speclin.CheckSpec, keyOf func(trace.Value) string, sessions, classical bool, opts ...speclin.Option) *router {
	return &router{
		ctx: ctx, spec: spec, opts: opts, keyOf: keyOf,
		sessions: sessions, retain: classical || !sessions,
		keys: map[string]*keyState{},
	}
}

// feed routes one merged action. Session errors (budget exhaustion,
// cancellation) are terminal per key and recorded, not returned: the
// hunt keeps draining the other keys and reports Unknown for this one.
func (rt *router) feed(a trace.Action) {
	k := ""
	if rt.keyOf != nil {
		k = rt.keyOf(a.Input)
	}
	ks := rt.keys[k]
	if ks == nil {
		ks = &keyState{key: k}
		if rt.sessions {
			ks.sess, ks.err = speclin.NewSession(rt.ctx, rt.spec, rt.opts...)
		}
		if rt.retain && rt.expect > 0 {
			ks.tr = make(trace.Trace, 0, rt.expect)
		}
		rt.keys[k] = ks
		rt.order = append(rt.order, ks)
	}
	ks.n++
	if rt.retain {
		ks.tr = append(ks.tr, a)
	}
	if ks.sess != nil && ks.err == nil {
		ks.err = ks.sess.Feed(a)
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
	// Wall is the sum over keys of what each check reported as its wall.
	// For a one-shot pass that is checking time; for live sessions it is
	// each session's lifetime (creation to report), so sixteen keys fed
	// by one drainer sum to many times the hunt's own wall — it is not
	// time spent checking.
	Wall time.Duration
}

// newReport starts a pass's report with what the router counted.
func (rt *router) newReport() RouteReport {
	out := RouteReport{Verdict: speclin.Linearizable, Keys: len(rt.order)}
	for _, ks := range rt.order {
		out.Actions += ks.n
	}
	return out
}

// add folds one key's outcome into the report and says whether the
// pass is over (the first NotLinearizable key ends it).
func (out *RouteReport) add(key string, rep speclin.Report, err error) (done bool) {
	out.Nodes += int64(rep.Nodes)
	out.Wall += rep.Wall
	switch {
	case err != nil:
		if out.Verdict == speclin.Linearizable {
			out.Verdict = speclin.Unknown
			out.Reason = fmt.Sprintf("key %q: %v", key, err)
		}
	case rep.Verdict == speclin.NotLinearizable:
		out.Verdict = speclin.NotLinearizable
		out.Reason = fmt.Sprintf("key %q: %s", key, rep.Reason)
		return true
	}
	return false
}

// reports collects every live session's verdict.
func (rt *router) reports() RouteReport {
	out := rt.newReport()
	for _, ks := range rt.order {
		rep, err := speclin.Report{}, ks.err
		if err == nil {
			rep, err = ks.sess.Report()
		}
		if out.add(ks.key, rep, err) {
			break
		}
	}
	return out
}

// oneShot runs a one-shot Check over every retained per-key trace in
// the given mode (the queue's post-run fast path, or ClassicalLin on
// the captured histories — their inputs are unique by construction, so
// Theorem 1 grounds the classical verdicts).
func (rt *router) oneShot(ctx context.Context, mode speclin.Mode, opts ...speclin.Option) RouteReport {
	out := rt.newReport()
	spec := rt.spec
	spec.Mode = mode
	for _, ks := range rt.order {
		rep, err := speclin.Check(ctx, spec, ks.tr, opts...)
		if out.add(ks.key, rep, err) {
			break
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
