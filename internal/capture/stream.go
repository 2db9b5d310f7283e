// The checker side of the capture harness: the merged action stream goes
// to the per-key histories of a keyed.Set, the layer that owns them for
// both pipelines (DESIGN.md, decision 28). The keyed map is a product of
// per-key registers and the set a product of per-member flags, so both
// split into independent histories by Herlihy–Wing locality. The map,
// the mutex and the queue stream through fast-path sessions, the set
// through exact ones (a key's frontier is as wide as its live overlap,
// decision 20); a trace is retained only for the ClassicalLin pass.
package capture

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/keyed"
	"repro/internal/trace"
)

// router is the drainer's emit (DESIGN.md, decision 37): it routes each
// invocation to its key's history (keyOf nil means one history under the
// key "") and keeps the handle keyed.Set.Invoke returns on the proc, which
// has at most one operation open; the response goes back through that
// handle, so it is never routed, nor its key parsed. An event that breaks
// its proc's alternation — an invocation while one is open, a response
// with none open or with another input — goes to its own key's history,
// which it makes NotLinearizable (keyed.Set.Malformed).
type router struct {
	set   *keyed.Set
	keyOf func(trace.Value) string
}

func (r router) emit(p *Proc, ev *Event) {
	switch {
	case ev.Kind == trace.Inv && !p.open:
		p.op, p.open = r.set.Invoke(r.key(ev.In), p.client, ev.In), true
	case ev.Kind == trace.Res && p.open && p.op.Input() == ev.In:
		p.open = false
		r.set.Respond(p.op, ev.Out)
	default:
		r.set.Malformed(r.key(ev.In), p.action(ev))
	}
}

func (r router) key(in trace.Value) string {
	if r.keyOf == nil {
		return ""
	}
	return r.keyOf(in)
}

// RouteReport aggregates the per-key verdicts of one check pass. Verdict
// is NotLinearizable if any key is, else Unknown if any key errored
// (budget, cancellation), else Linearizable; Reason names the first
// offending key. Keys counts the per-key histories, Actions what was
// routed to them, and Nodes the search nodes they spent: one a fed action
// on the fast paths, so Nodes == Actions is the signature of a run that
// never left the specialized fragments.
type RouteReport struct {
	Verdict        check.Verdict
	Reason         string
	Keys           int
	Nodes, Actions int64
	// Wall is time spent checking: for the live report the drain's
	// batches (merging, routing and feeding the sessions, one clock pair a
	// batch), which lie inside the hunt's Report.Wall; for the classical
	// report its one-shot pass.
	Wall time.Duration
}

// routeReport is the public view of a keyed report.
func routeReport(r keyed.Report) RouteReport {
	out := RouteReport{Verdict: r.Verdict, Keys: r.Histories, Nodes: r.Nodes, Actions: r.Actions, Wall: r.Wall}
	if r.Verdict != check.Linearizable {
		out.Reason = fmt.Sprintf("key %q: %s", r.Key, r.Reason)
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

// Captured map inputs: the tag carries "key.uniq" so the drainer can
// split per key; the untagged input stays register grammar. Written
// values embed the globally unique uniq, meeting the register fast
// path's distinct-values fragment.

func mapWriteInput(key, uniq string) trace.Value {
	return adt.Tag(adt.WriteInput(trace.Value(uniq)), key+"."+uniq)
}

func mapReadInput(key, uniq string) trace.Value {
	return adt.Tag(adt.ReadInput(), key+"."+uniq)
}
