// Package capture is the runtime instrumentation front-end of the
// checker (ISSUE 8): it records invocation/response histories from
// actual concurrent Go code and streams them — merged into one
// totalizable trace — through the incremental checker sessions, so real
// data structures (sync.Map, sync.Mutex, a lazy-list set, a
// Michael–Scott queue) are checked linearizable live, and seeded-bug
// mutants of each are flagged non-linearizable under stress.
//
// The capture model (DESIGN.md, decision 16) in brief:
//
//   - One Proc per goroutine. Each proc owns a lock-free single-producer
//     event buffer (a chunked list linked by atomic pointers) and
//     records an event before invoking an operation on the structure
//     under test and another after it returns. Recording never blocks
//     and never allocates on the hot path outside chunk boundaries.
//   - Timestamps come from one monotonic clock (time.Since of a common
//     origin; tests inject a deterministic clock). Per proc, timestamps
//     are strictly increasing, and the two event kinds reach that
//     differently. A response that collides with the proc's previous
//     timestamp is bumped by 1ns: the reading was taken after the
//     operation returned, so a later value is still a sound post-return
//     time — it only widens the operation's interval, which can hide a
//     real-time precedence but never manufacture one. An invocation is
//     never bumped: pushing an invocation later could move it past
//     another proc's genuine response within the same clock granule,
//     manufacturing a precedence the execution never had (a false
//     NotLinearizable). Instead the invocation polls the clock until it
//     advances past the previous timestamp, so every invocation carries
//     a genuine pre-call reading. (No comparator can repair a fully
//     stuck clock: two procs each recording response-then-invocation in
//     one granule force a cross-proc cycle between the orders, so the
//     clock advancing under polling is a hard requirement, not a
//     convenience — see WithClock.)
//   - The drainer merges the per-proc buffers — each already a sorted
//     run, per-proc timestamps being strictly increasing — k ways into a
//     single totally ordered action sequence with the comparator (T,
//     kind with Inv before Res, proc), handing each action on as it is
//     picked (DESIGN.md, decision 23). Invocations sort before responses
//     at equal timestamps because a tie leaves the true order unknown:
//     placing the invocation first only widens operation intervals,
//     which can hide a real-time precedence but can never manufacture
//     one — the merged trace under-approximates the real-time order, so
//     a NotLinearizable verdict on it is trustworthy.
//   - The gate protocol makes live draining safe without locks: a proc
//     publishes an event and then advances its gate to the event's
//     timestamp, promising every later event a strictly larger one. The
//     drainer's watermark is the minimum gate over all procs; published
//     events below the watermark are in their final merge position and
//     can be fed to the checker sessions immediately.
package capture

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/keyed"
	"repro/internal/trace"
)

// Event is one recorded action: an invocation (Out empty) or a response.
type Event struct {
	T    int64
	Kind trace.Kind
	In   trace.Value
	Out  trace.Value
}

// chunkSize sizes the per-proc buffer chunks. Recording allocates only
// at chunk boundaries; 1024 events ≈ one allocation per 512 operations.
const chunkSize = 1024

type chunk struct {
	next atomic.Pointer[chunk]
	ev   [chunkSize]Event
}

// Proc is one goroutine's recording handle: a single-producer event
// buffer plus the gate the drainer's watermark is computed from. Inv,
// Res and Close must be called from a single goroutine; the drainer may
// run concurrently with all of them.
type Proc struct {
	id     int
	client trace.ClientID
	clock  func() int64

	gate      atomic.Int64
	published atomic.Int64

	// Producer-owned.
	tail   *chunk
	tailN  int
	last   int64
	total  int64
	closed bool
	mute   bool

	// Drainer-owned.
	head    *chunk
	headN   int
	drained int64
	avail   int64  // published, as loaded when the current merge began
	cur     *Event // merge head: the next event to emit, nil when none is below the limit
	// op is the proc's open operation's handle while open is set: the
	// router pairs a response with it (DESIGN.md, decision 37).
	op   keyed.Op
	open bool
}

// Client returns the client ID the proc's actions carry ("g0", "g1", …).
func (p *Proc) Client() trace.ClientID { return p.client }

// Inv records the invocation of in.
func (p *Proc) Inv(in trace.Value) { p.record(trace.Inv, in, "") }

// Res records the response out of the operation invoked with in.
func (p *Proc) Res(in, out trace.Value) { p.record(trace.Res, in, out) }

func (p *Proc) record(k trace.Kind, in, out trace.Value) {
	if p.mute {
		return
	}
	if p.closed {
		panic("capture: record on closed Proc")
	}
	t := p.clock()
	if t <= p.last {
		if k == trace.Inv {
			// Never bump an invocation: a manufactured later timestamp
			// could sort it past another proc's genuine response in the
			// same clock granule, adding a real-time precedence the
			// execution never had. Poll for a genuine fresh reading
			// instead (WithClock requires the clock to advance under
			// repeated polling).
			for t <= p.last {
				t = p.clock()
			}
		} else {
			// A response reading was taken after the operation returned,
			// so any later value is still a sound post-return time: the
			// bump widens the interval, removing precedences but never
			// adding one.
			t = p.last + 1
		}
	}
	p.last = t
	if p.tailN == chunkSize {
		c := &chunk{}
		p.tail.next.Store(c)
		p.tail = c
		p.tailN = 0
	}
	p.tail.ev[p.tailN] = Event{T: t, Kind: k, In: in, Out: out}
	p.tailN++
	p.total++
	// Publish the slot, then advance the gate: a drainer that observes
	// gate ≥ t has, by the release/acquire pairing on published, already
	// seen every event with timestamp ≤ t.
	p.published.Store(p.total)
	p.gate.Store(t)
}

// Close marks the proc finished: its gate moves to +∞ so it no longer
// holds back the watermark. Recording after Close panics.
func (p *Proc) Close() {
	p.closed = true
	p.gate.Store(math.MaxInt64)
}

// Recorder owns the per-proc buffers and the merge. The drain side
// (Watermark, Drain) must be used from a single goroutine at a time;
// the record side is one goroutine per Proc.
type Recorder struct {
	clock func() int64
	procs []*Proc
	heads []*Proc // each's merge heap, kept between calls
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithClock injects the timestamp source (monotonic nanoseconds). The
// clock must advance under repeated polling: an invocation whose
// reading does not exceed the proc's previous timestamp polls until it
// does (see the package comment — bumping invocations is unsound, and
// a clock stuck across two procs' operations can force a manufactured
// cross-proc precedence no merge order avoids). Tests inject
// deterministic counters that auto-advance under sustained polling;
// the default is time.Since of the Recorder's creation instant.
func WithClock(clock func() int64) Option {
	return func(r *Recorder) { r.clock = clock }
}

// NewRecorder creates a recorder with procs recording goroutines.
func NewRecorder(procs int, opts ...Option) *Recorder {
	r := &Recorder{}
	for _, o := range opts {
		o(r)
	}
	if r.clock == nil {
		start := time.Now()
		r.clock = func() int64 { return int64(time.Since(start)) }
	}
	r.procs = make([]*Proc, procs)
	for i := range r.procs {
		c := &chunk{}
		r.procs[i] = &Proc{
			id:     i,
			client: trace.ClientID(fmt.Sprintf("g%d", i)),
			clock:  r.clock,
			tail:   c,
			head:   c,
		}
	}
	return r
}

// Proc returns recording handle i.
func (r *Recorder) Proc(i int) *Proc { return r.procs[i] }

// Procs returns the number of procs.
func (r *Recorder) Procs() int { return len(r.procs) }

// Watermark returns the merge-safe bound: every event with T strictly
// below it has been published and is in its final merge position.
func (r *Recorder) Watermark() int64 {
	w := int64(math.MaxInt64)
	for _, p := range r.procs {
		if g := p.gate.Load(); g < w {
			w = g
		}
	}
	return w
}

// Drain appends to dst all not-yet-drained events with T < limit,
// merged across procs by (T, Inv before Res, proc), as actions of phase
// 1. Pass r.Watermark() for a live drain or math.MaxInt64 after every
// proc closed. Single-goroutine only.
func (r *Recorder) Drain(limit int64, dst trace.Trace) trace.Trace {
	// Room for everything published and not yet drained — the most this
	// call can append — so dst grows once, not as the merge goes.
	n := 0
	for _, p := range r.procs {
		n += int(p.published.Load() - p.drained)
	}
	dst = slices.Grow(dst, n)
	r.each(limit, func(p *Proc, ev *Event) { dst = append(dst, p.action(ev)) })
	return dst
}

// action is ev as an action of p's client, of phase 1.
func (p *Proc) action(ev *Event) trace.Action {
	if ev.Kind == trace.Inv {
		return trace.Invoke(p.client, 1, ev.In)
	}
	return trace.Response(p.client, 1, ev.In, ev.Out)
}

// each is the merge behind Drain: it hands emit every not-yet-drained
// event with T < limit, with its proc, in (T, Inv before Res, proc) order. Per proc,
// timestamps are strictly increasing, so each buffer is already a sorted
// run and no two events compare equal: the k-way merge over the procs'
// next events is the one total order that sorting the batch would give.
// The work per event is a sift in a heap of at most Procs() entries and
// nothing is allocated.
func (r *Recorder) each(limit int64, emit func(*Proc, *Event)) {
	// What a proc has published is loaded once, before any event is
	// emitted: with limit = Watermark() every event below it was already
	// published (the gate protocol), so the set merged is fixed here and
	// a concurrent producer cannot slip an event into an emitted range.
	h := r.heads[:0]
	for _, p := range r.procs {
		p.avail = p.published.Load()
		if p.peek(limit) {
			h = append(h, p)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		p := h[0]
		emit(p, p.cur)
		p.headN++
		p.drained++
		if !p.peek(limit) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	r.heads = h[:0]
}

// peek points p.cur at the proc's next undrained event and reports
// whether there is one below limit. The hop to the next chunk is taken
// only once avail says an event lives there: the producer links a chunk
// before it publishes the chunk's first event, so the link is non-nil
// exactly then — a proc that has published a full chunk and nothing more
// has no next chunk yet.
func (p *Proc) peek(limit int64) bool {
	p.cur = nil
	if p.drained == p.avail {
		return false
	}
	if p.headN == chunkSize {
		p.head = p.head.next.Load()
		p.headN = 0
	}
	if ev := &p.head.ev[p.headN]; ev.T < limit {
		p.cur = ev
		return true
	}
	return false
}

// before is the merge comparator on two procs' heads: timestamps first,
// then Inv before Res, then proc id.
func (p *Proc) before(q *Proc) bool {
	a, b := p.cur, q.cur
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Kind != b.Kind {
		return a.Kind == trace.Inv
	}
	return p.id < q.id
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []*Proc, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
