// Package msgnet is a deterministic discrete-event simulator of an
// asynchronous message-passing system with crash faults — the substrate of
// the paper's first case study (§2.1). It substitutes for a real cluster
// (DESIGN.md, substitution 1): processes exchange messages over links with
// configurable delay distributions, loss, duplication, link blocking
// (partitions), crash injection and crash–recovery, all driven by seeded
// RNGs so that every run is replayable bit-for-bit.
//
// Virtual time is measured in abstract delay units. With the default
// unit-delay configuration, elapsed virtual time equals the number of
// sequential message delays on the critical path, which is the latency
// metric the paper uses ("Quorum decides in two message delays; Paxos has
// a minimum latency of three").
//
// Fault injection uses two independent random streams: the base stream
// (message delay, global drop/dup) and a fault stream consumed only by
// per-link rules. A run with no link rules therefore replays the exact
// event schedule of the same seed before any rules existed — the property
// the experiments rely on to compare faulty and fault-free runs.
package msgnet

import (
	"fmt"
	"math/rand"
)

// Time is virtual time in abstract delay units.
type Time int64

// ProcID identifies a simulated process.
type ProcID string

// Msg is one message. Protocol messages fit its fixed fields and travel
// by value: the simulator copies a Msg into the pooled event that carries
// it, so posting one allocates nothing. The fields mean what the
// protocols that exchange them say; the simulator reads none of them.
type Msg struct {
	// Routing header: which shard, log slot and speculation phase the
	// message belongs to.
	Shard int32
	Phase uint8
	// Kind discriminates the body. Zero is a message that carries only
	// Body (Send).
	Kind uint8
	Slot int
	// Phase body: two integers and one value.
	A, B int64
	V    string
	// Body carries what fits no fixed field, such as a batch of decided
	// commands: shared by every copy of the message, and immutable (see
	// Handler).
	Body any
}

// Timer is a timer's key, the counterpart of Msg's routing header: the
// shard and speculation phase that armed it and its kind, or the Name
// given to SetTimer. A node has one timer per key; a key with a Name is
// told apart by its Name alone.
type Timer struct {
	Shard int32
	Phase uint8
	Kind  uint8
	Name  string
}

// key packs a typed timer's fields into one integer, injectively: the
// whole shard, then phase and kind.
func (t Timer) key() uint64 {
	return uint64(uint32(t.Shard))<<16 | uint64(t.Phase)<<8 | uint64(t.Kind)
}

// Handler implements a process's protocol logic. Handlers run in the
// single-threaded event loop; they must not retain n across events (it is
// stable, but must only be used from within callbacks).
//
// A handler takes messages and timers through one of two pairs of entry
// points, chosen once by AddNode. A Receiver takes whole messages (OnMsg)
// and timer keys (OnTick), and kinds split timers as they split messages
// (see mpcons.HostKinds). A PayloadReceiver takes only a message's Body
// (OnMessage) and a timer's Name (OnTimer): the edge for handlers that
// send with Send and arm with SetTimer.
//
// Messages travel by value. Every delivery, duplicates included, is a
// copy of the Msg given to Post, which the handler owns: it may change it
// or keep it. The Body is the exception, shared rather than copied —
// every copy carries the very value given to Post, and a sender may give
// one value to many messages — so a Body is an immutable value owned by
// nobody: neither side may modify it (or anything it points to) after
// Post, and a handler may retain it for as long as it likes. Events are
// the simulator's: the record that carried a message or timer is reused
// for a later one as soon as the callback returns, which a handler cannot
// observe — it is only ever handed a copy of the message and the timer
// key.
type Handler interface {
	// Init runs when the simulation starts (before any event).
	Init(n *Node)
}

// Receiver is a handler that takes messages by value and timers by key.
type Receiver interface {
	// OnMsg delivers a message sent by from.
	OnMsg(n *Node, from ProcID, m Msg)
	// OnTick fires a timer armed with Arm.
	OnTick(n *Node, t Timer)
}

// PayloadReceiver is a handler that takes only a message's Body and a
// timer's Name.
type PayloadReceiver interface {
	// OnMessage delivers the Body of a message sent by from.
	OnMessage(n *Node, from ProcID, payload any)
	// OnTimer fires a timer armed with SetTimer.
	OnTimer(n *Node, name string)
}

// RecoverableHandler is implemented by handlers that support crash–
// recovery. When Network.Restart revives a crashed node, OnRestart runs
// before any further delivery so the handler can discard volatile state
// and rebuild from whatever it models as durable. Handlers that do not
// implement it resume with their in-memory state intact, which models a
// process whose entire state is durable (crash = long pause losing only
// in-flight messages and timers).
type RecoverableHandler interface {
	Handler
	OnRestart(n *Node)
}

// Config parameterizes the network.
type Config struct {
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed int64
	// MinDelay and MaxDelay bound per-message delivery delay, drawn
	// uniformly. Defaults to 1 and 1 (unit delay).
	MinDelay, MaxDelay Time
	// DropProb is the probability a message is lost.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
}

func (c Config) withDefaults() Config {
	if c.MinDelay <= 0 {
		c.MinDelay = 1
	}
	if c.MaxDelay < c.MinDelay {
		c.MaxDelay = c.MinDelay
	}
	return c
}

// LinkRule is a per-link fault rule applied on top of the global Config
// probabilities: extra loss, extra duplication and extra delay for
// messages over one directed link. Rules draw from the dedicated fault
// RNG stream, never from the base stream.
type LinkRule struct {
	// DropProb is the probability a message on the link is lost.
	DropProb float64
	// DupProb is the probability a message on the link is duplicated.
	DupProb float64
	// ExtraMinDelay and ExtraMaxDelay bound an additional delivery delay,
	// drawn uniformly, added to the base delay (both zero = no extra).
	ExtraMinDelay, ExtraMaxDelay Time
}

func (r LinkRule) extraDelay(rng *rand.Rand) Time {
	d := r.ExtraMinDelay
	if r.ExtraMaxDelay > r.ExtraMinDelay {
		d += Time(rng.Int63n(int64(r.ExtraMaxDelay - r.ExtraMinDelay + 1)))
	}
	return d
}

type eventKind uint8

const (
	evDeliver eventKind = iota
	evTimer
	evCrash
	evCall
)

// event is one scheduled delivery, timer, crash or call. Its time lives
// in the calendar (the bucket it waits in, or its overflow entry), not
// here.
type event struct {
	kind eventKind

	// next links the events of one calendar bucket in push order.
	next *event

	// node is the destination, resolved when the event was scheduled: nil
	// for calls, and a stand-in for a destination that did not exist yet
	// (see Network.absent), which is looked up by name again when the
	// event pops. from is a delivery's sender, nil otherwise.
	node *Node
	from *Node
	msg  Msg

	// timer fires while its key's generation counter, gen, still reads
	// timerGen, the generation it was armed at.
	timer    Timer
	timerGen int64
	gen      *int64

	call func()
}

// calendarWidth is the calendar's window W, in time units: every event
// due in [cur, cur+W) waits in a bucket. A message takes a few delays and
// a protocol timeout a few more, so almost every push lands in the
// window; recovery watchdogs of a thousand delays and scripted At calls
// wait in the overflow heap. A power of two, so a time's bucket is a
// mask.
const calendarWidth = 64

// bucket holds the events due at one time, in push order: a FIFO list
// threaded through the events themselves.
type bucket struct{ head, tail *event }

// calendar is the event queue, a calendar queue (Brown, CACM 1988) over
// integer time. It pops in (at, push order), the order the schedule
// digest rests on, and pushes and pops in constant time while events
// land in the window:
//
//   - events due in [cur, cur+W) wait in ring[at mod W], oldest first;
//   - events due at cur+W or later wait in over, a heap on (at, seq);
//   - nothing is due before cur.
//
// A direct push to a bucket is younger than everything already in it.
// An overflow event moves into its bucket as soon as the window reaches
// its time, which is before any direct push can land there, and the heap
// hands over a time's events oldest first, so every bucket stays in push
// order. A push before cur rewinds the window first (see rewind).
type calendar struct {
	cur  Time
	n    int // events in the ring
	ring [calendarWidth]bucket
	over eventQueue
	seq  int64 // next overflow tie-break
}

func (c *calendar) push(at Time, e *event) {
	if at < c.cur {
		c.rewind(at)
	}
	if at-c.cur < calendarWidth {
		c.append(at, e)
		return
	}
	c.over.push(queued{at: at, seq: c.seq, ev: e})
	c.seq++
}

// append adds e at the back of the bucket of time at, which must be in
// the window.
func (c *calendar) append(at Time, e *event) {
	b := &c.ring[at&(calendarWidth-1)]
	if b.tail == nil {
		b.head = e
	} else {
		b.tail.next = e
	}
	b.tail = e
	c.n++
}

// pop removes and returns the earliest event and its time, if that time
// is at most limit. The cursor moves up to the event it returns, or to
// limit+1 when none is due by then, so it may end past the network's clock
// (after dead pops, or a stopped Run).
func (c *calendar) pop(limit Time) (*event, Time, bool) {
	for c.cur <= limit {
		if c.n == 0 {
			if len(c.over) == 0 || c.over[0].at > limit {
				return nil, 0, false
			}
			c.advance(c.over[0].at)
		}
		b := &c.ring[c.cur&(calendarWidth-1)]
		if e := b.head; e != nil {
			if b.head = e.next; b.head == nil {
				b.tail = nil
			}
			e.next = nil
			c.n--
			return e, c.cur, true
		}
		c.advance(c.cur + 1)
	}
	return nil, 0, false
}

// advance moves the window's start to t, whose buckets before t must be
// empty, and moves the overflow events the window now covers into their
// buckets, oldest first.
func (c *calendar) advance(t Time) {
	c.cur = t
	for len(c.over) > 0 && c.over[0].at-t < calendarWidth {
		q := c.over.pop()
		c.append(q.at, q.ev)
	}
}

// rewind moves the window's start back to t < cur, for a push due
// before the cursor: At(t) with now ≤ t < cur, after a Run that stopped
// or popped dead events past now. The times that leave the window go to
// the overflow heap, each bucket oldest first. None of them has an
// overflow event yet (they were in the window), and every later push
// takes a higher seq, so their order holds when the window reaches them
// again.
func (c *calendar) rewind(t Time) {
	from := max(t+calendarWidth, c.cur)
	for at := from; at < c.cur+calendarWidth; at++ {
		b := &c.ring[at&(calendarWidth-1)]
		for e := b.head; e != nil; {
			next := e.next
			e.next = nil
			c.over.push(queued{at: at, seq: c.seq, ev: e})
			c.seq++
			c.n--
			e = next
		}
		*b = bucket{}
	}
	c.cur = t
}

// queued is an overflow event's entry. (at, seq) is a total order — seq
// is unique — so the pop order is a function of what was pushed and
// nothing else: no layout of the heap can reorder a schedule. The key is
// kept beside the pointer so that sifting compares without dereferencing.
type queued struct {
	at  Time
	seq int64 // FIFO tie-break: determinism under equal times
	ev  *event
}

func (a queued) before(b queued) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is the calendar's overflow store, a 4-ary min-heap on (at,
// seq): half the depth of a binary heap, and the four children of a slot
// share a cache line or two.
type eventQueue []queued

func (q *eventQueue) push(x queued) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	*q = h
}

// pop removes and returns the minimum; the queue must not be empty.
func (q *eventQueue) pop() queued {
	h := *q
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = queued{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(x) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = x
	return top
}

// maxFreeEvents bounds the event free list. A steady-state run has a few
// hundred events in flight, so a small list already serves every push;
// an unbounded one would pin the queue's high-water mark — a scripted
// workload's hundred thousand At calls, every client's timers around a
// partition — for the rest of the run (DESIGN.md, decision 22, has the
// measurements).
const maxFreeEvents = 1024

// Network is the simulator. Create with New, add processes with AddNode,
// then Run.
type Network struct {
	cfg   Config
	rng   *rand.Rand // base stream: delay, global drop/dup
	frng  *rand.Rand // fault stream: per-link rules only
	now   Time
	queue calendar
	// free holds dispatched and dead events for reuse, at most
	// maxFreeEvents of them.
	free  []*event
	nodes map[ProcID]*Node
	order []*Node // insertion order, for deterministic Init
	// absentees stand in for destinations that had no node when a
	// message was posted to them (see absent).
	absentees map[ProcID]*Node
	// blocked links (directed), counted so overlapping partitions nest:
	// a link is open only when its count is zero.
	blocked map[[2]ProcID]int
	rules   map[[2]ProcID]LinkRule

	// dig is a running FNV-1a digest of the dispatched event schedule.
	dig uint64

	// Statistics.
	sent       int64
	delivered  int64
	dropped    int64
	duplicated int64
}

// New creates an empty network.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		// Distinct derived seed: the fault stream must differ from the base
		// stream yet stay a pure function of cfg.Seed.
		frng:    rand.New(rand.NewSource(cfg.Seed ^ 0x5eedfa17)),
		nodes:   map[ProcID]*Node{},
		blocked: map[[2]ProcID]int{},
		rules:   map[[2]ProcID]LinkRule{},
		dig:     fnvOffset,
	}
}

// Node is a process endpoint handed to Handler callbacks.
type Node struct {
	id          ProcID
	net         *Network
	handler     Handler
	recv        func(n *Node, from ProcID, m Msg) // the entry points AddNode chose
	tick        func(n *Node, t Timer)
	crashed     bool
	initialized bool
	// timerGen and namedGen hold each timer key's generation counter,
	// typed keys under Timer.key and named ones under Name. Arming or
	// disarming a key bumps its counter, which kills the timer it had
	// outstanding; a crash bumps every counter and forgets them.
	timerGen map[uint64]*int64
	namedGen map[string]*int64
	// counters is the unused rest of the block new counters come from.
	counters []int64
}

// AddNode registers a process. It panics if the ID is duplicated or the
// handler is neither a Receiver nor a PayloadReceiver (configuration bugs).
func (w *Network) AddNode(id ProcID, h Handler) *Node {
	if _, dup := w.nodes[id]; dup {
		panic(fmt.Sprintf("msgnet: duplicate node %q", id))
	}
	n := &Node{id: id, net: w, handler: h, timerGen: map[uint64]*int64{}, namedGen: map[string]*int64{}}
	switch r := h.(type) {
	case Receiver:
		n.recv, n.tick = r.OnMsg, r.OnTick
	case PayloadReceiver:
		n.recv = func(n *Node, from ProcID, m Msg) { r.OnMessage(n, from, m.Body) }
		n.tick = func(n *Node, t Timer) { r.OnTimer(n, t.Name) }
	default:
		panic(fmt.Sprintf("msgnet: handler %T of node %q has neither OnMsg/OnTick nor OnMessage/OnTimer", h, id))
	}
	w.nodes[id] = n
	w.order = append(w.order, n)
	return n
}

// Procs returns the number of registered processes.
func (w *Network) Procs() int { return len(w.nodes) }

// NodeIDs returns all registered process IDs in insertion order.
func (w *Network) NodeIDs() []ProcID {
	ids := make([]ProcID, len(w.order))
	for i, n := range w.order {
		ids[i] = n.id
	}
	return ids
}

// At schedules fn to run at absolute virtual time t (or now, if t is in
// the past). Used to script workloads and fault injections.
func (w *Network) At(t Time, fn func()) {
	if t < w.now {
		t = w.now
	}
	e := w.newEvent(evCall)
	e.call = fn
	w.queue.push(t, e)
}

// Crash schedules process id to crash at time t: from then on it receives
// no messages or timers and sends nothing, until (and unless) Restart
// revives it. Crashing discards all timer bookkeeping — a crashed process
// loses its timers, and stale in-flight timer events can never fire into
// a post-restart incarnation (each crash retires every timer key).
func (w *Network) Crash(id ProcID, t Time) {
	w.At(t, func() {
		if n := w.nodes[id]; n != nil && !n.crashed {
			n.crashed = true
			retire(n.timerGen)
			retire(n.namedGen)
		}
	})
}

// Restart schedules process id to recover at time t. A node that is not
// crashed at that time is left untouched. The revived node receives
// messages sent after the restart; messages and timers from before the
// crash are gone. If the handler implements RecoverableHandler its
// OnRestart hook runs first, so it can rebuild from durable state.
func (w *Network) Restart(id ProcID, t Time) {
	w.At(t, func() {
		n := w.nodes[id]
		if n == nil || !n.crashed {
			return
		}
		n.crashed = false
		if rh, ok := n.handler.(RecoverableHandler); ok {
			rh.OnRestart(n)
		}
	})
}

// Block drops all messages from a to b until a matching Unblock. Blocking
// both directions of every pair across a cut simulates a partition.
// Blocks nest: a link blocked twice needs two Unblocks to reopen, so
// overlapping fault plans compose.
func (w *Network) Block(a, b ProcID) { w.blocked[[2]ProcID{a, b}]++ }

// Unblock undoes one Block of the link from a to b.
func (w *Network) Unblock(a, b ProcID) {
	k := [2]ProcID{a, b}
	if w.blocked[k] <= 1 {
		delete(w.blocked, k)
	} else {
		w.blocked[k]--
	}
}

// SetLinkRule installs (or replaces) the fault rule for the directed link
// from a to b, effective for messages sent from now on.
func (w *Network) SetLinkRule(a, b ProcID, r LinkRule) { w.rules[[2]ProcID{a, b}] = r }

// ClearLinkRule removes the fault rule for the directed link from a to b.
func (w *Network) ClearLinkRule(a, b ProcID) { delete(w.rules, [2]ProcID{a, b}) }

// Now returns current virtual time.
func (w *Network) Now() Time { return w.now }

// Stats returns (sent, delivered, dropped) message counts.
func (w *Network) Stats() (sent, delivered, dropped int64) {
	return w.sent, w.delivered, w.dropped
}

// Duplicated returns the number of extra message copies scheduled by
// duplication (global DupProb or link rules).
func (w *Network) Duplicated() int64 { return w.duplicated }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return fnvByte(h, 0xff) // terminator: "ab","c" ≠ "a","bc"
}

// ScheduleDigest returns a digest of the effective event schedule so
// far: every event that reached a handler (or scheduled call), with its
// time, kind and endpoints, in dispatch order. Cancelled timers and
// deliveries to crashed nodes are excluded — they are queue residue, not
// behavior. Two runs with equal digests executed the same schedule event
// for event: the determinism oracle for fault-plan replay tests, and the
// reason a run that merely *arms* extra (never-firing) timers still
// digests identically to one that doesn't.
func (w *Network) ScheduleDigest() uint64 { return w.dig }

// newEvent returns a zeroed event of the given kind, from the free list
// when it has one.
func (w *Network) newEvent(kind eventKind) *event {
	if n := len(w.free); n > 0 {
		e := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		e.kind = kind
		return e
	}
	return &event{kind: kind}
}

// recycle returns a popped event to the free list once nothing can refer
// to it anymore: after its handler returned, or when it popped dead. It
// is cleared first, so the list keeps no Body alive; with the list
// full the event is left to the collector.
func (w *Network) recycle(e *event) {
	if len(w.free) < maxFreeEvents {
		*e = event{}
		w.free = append(w.free, e)
	}
}

// absent returns the stand-in for destination id, which has no node: a
// Node with only its name, kept per name. A delivery to it resolves the
// name again when it pops, so a node added in the meantime receives it.
func (w *Network) absent(id ProcID) *Node {
	n := w.absentees[id]
	if n == nil {
		if w.absentees == nil {
			w.absentees = map[ProcID]*Node{}
		}
		n = &Node{id: id}
		w.absentees[id] = n
	}
	return n
}

// Run processes events until the queue is empty or virtual time would
// exceed maxTime. It returns the virtual time of the last effective
// event: queue residue (cancelled timers, deliveries to crashed nodes)
// neither advances the clock nor counts as behavior, so a run that armed
// timers which never fire ends at the same virtual time as one that
// never armed them.
func (w *Network) Run(maxTime Time) Time {
	for _, n := range w.order {
		if !n.initialized {
			n.initialized = true
			n.handler.Init(n)
		}
	}
	for {
		e, at, ok := w.queue.pop(maxTime)
		if !ok {
			return w.now
		}
		if !w.dead(e) {
			w.now = at
			w.dispatch(e)
		}
		w.recycle(e)
	}
}

// dead reports whether a popped event is queue residue with no
// observable effect: a cancelled or superseded timer, a timer armed
// before its node's last crash, or a delivery or timer for a crashed or
// unknown node. Dead events do not advance virtual time and are excluded
// from the schedule digest.
func (w *Network) dead(e *event) bool {
	if e.kind == evCall {
		return false
	}
	n := e.node
	if n.net == nil {
		// Sent before the destination existed: it may have been added since.
		if n = w.nodes[n.id]; n == nil {
			return true
		}
		e.node = n
	}
	if n.crashed {
		return true
	}
	return e.kind == evTimer && *e.gen != e.timerGen
}

// dispatch runs a live event at w.now. The handler may send, arm timers
// and schedule calls freely: those take other events, and this one is
// recycled only after the handler has returned.
func (w *Network) dispatch(e *event) {
	var to, from ProcID
	if e.node != nil {
		to = e.node.id
	}
	if e.from != nil {
		from = e.from.id
	}
	h := fnvUint64(w.dig, uint64(w.now))
	h = fnvByte(h, byte(e.kind))
	h = fnvString(h, string(to))
	w.dig = fnvString(h, string(from))
	switch e.kind {
	case evCall:
		e.call()
	case evDeliver:
		w.delivered++
		e.node.recv(e.node, from, e.msg)
	case evTimer:
		e.node.tick(e.node, e.timer)
	}
}

// ID returns the node's process ID.
func (n *Node) ID() ProcID { return n.id }

// Now returns the network's current virtual time.
func (n *Node) Now() Time { return n.net.now }

// Crashed reports whether the node has crashed.
func (n *Node) Crashed() bool { return n.crashed }

// Send posts a message that carries only payload: Post(to, Msg{Body:
// payload}), for handlers that receive with OnMessage.
func (n *Node) Send(to ProcID, payload any) { n.Post(to, Msg{Body: payload}) }

// Post queues a message to the destination, subject to delay, loss and
// duplication (global and per-link). Posts from crashed nodes are
// ignored. Every copy delivered is field-equal to m and shares its Body —
// see Handler for the immutability rule that makes that safe.
func (n *Node) Post(to ProcID, m Msg) {
	w := n.net
	if n.crashed {
		return
	}
	w.sent++
	// The two link tables are empty in a fault-free run; hashing a pair of
	// IDs per message to find that out was a measurable share of Post.
	if len(w.blocked) > 0 && w.blocked[[2]ProcID{n.id, to}] > 0 {
		w.dropped++
		return
	}
	var rule LinkRule
	ruled := false
	if len(w.rules) > 0 {
		rule, ruled = w.rules[[2]ProcID{n.id, to}]
	}
	if ruled && rule.DropProb > 0 && w.frng.Float64() < rule.DropProb {
		w.dropped++
		return
	}
	if w.cfg.DropProb > 0 && w.rng.Float64() < w.cfg.DropProb {
		w.dropped++
		return
	}
	dst := w.nodes[to]
	if dst == nil {
		dst = w.absent(to)
	}
	n.deliver(dst, &m, rule, ruled)
	if ruled && rule.DupProb > 0 && w.frng.Float64() < rule.DupProb {
		w.duplicated++
		n.deliver(dst, &m, rule, ruled)
	}
	if w.cfg.DupProb > 0 && w.rng.Float64() < w.cfg.DupProb {
		w.duplicated++
		n.deliver(dst, &m, rule, ruled)
	}
}

// deliver schedules one copy of a message: it draws the copy's delay
// (base stream, then the link rule's extra from the fault stream) and
// queues the delivery.
func (n *Node) deliver(dst *Node, m *Msg, rule LinkRule, ruled bool) {
	w := n.net
	d := w.cfg.MinDelay
	if w.cfg.MaxDelay > w.cfg.MinDelay {
		d += Time(w.rng.Int63n(int64(w.cfg.MaxDelay - w.cfg.MinDelay + 1)))
	}
	if ruled {
		d += rule.extraDelay(w.frng)
	}
	e := w.newEvent(evDeliver)
	e.node, e.from, e.msg = dst, n, *m
	w.queue.push(w.now+d, e)
}

// Arm (re)arms timer t to fire after d. Re-arming replaces any
// outstanding instance of the same key.
func (n *Node) Arm(t Timer, d Time) {
	var g *int64
	if t.Name == "" {
		g = counter(n, n.timerGen, t.key())
	} else {
		g = counter(n, n.namedGen, t.Name)
	}
	*g++
	e := n.net.newEvent(evTimer)
	e.node = n
	e.timer, e.timerGen, e.gen = t, *g, g
	n.net.queue.push(n.net.now+d, e)
}

// Disarm cancels timer t if armed. Disarming a key the node holds no
// bookkeeping for — never armed, or armed before the last crash — is a
// no-op and creates none: there is nothing in the queue it could fire,
// and an entry made here would be one nothing ever uses.
func (n *Node) Disarm(t Timer) {
	var g *int64
	if t.Name == "" {
		g = n.timerGen[t.key()]
	} else {
		g = n.namedGen[t.Name]
	}
	if g != nil {
		*g++
	}
}

// counterBlock is how many generation counters a node allocates at once.
const counterBlock = 16

// counter returns key k's generation counter in gens, one of n's tables,
// giving k a fresh one if it has none. Fresh counters are cut from a
// block, so a node's keys, and its keys again after each crash, cost an
// allocation per block rather than per key.
func counter[K comparable](n *Node, gens map[K]*int64, k K) *int64 {
	g := gens[k]
	if g == nil {
		if len(n.counters) == 0 {
			n.counters = make([]int64, counterBlock)
		}
		g, n.counters = &n.counters[0], n.counters[1:]
		gens[k] = g
	}
	return g
}

// retire kills every timer armed under gens by bumping its counter, then
// forgets the counters: a crashed node can fire none of them, and a key
// the next incarnation arms gets a fresh counter, so nothing armed before
// the crash fires after it, whatever the generations.
func retire[K comparable](gens map[K]*int64) {
	for _, g := range gens {
		*g++
	}
	clear(gens)
}

// SetTimer arms the named timer, Timer{Name: name}, for handlers that
// receive with OnTimer.
func (n *Node) SetTimer(name string, d Time) { n.Arm(Timer{Name: name}, d) }

// CancelTimer disarms the named timer, Timer{Name: name}.
func (n *Node) CancelTimer(name string) { n.Disarm(Timer{Name: name}) }

// TimerNames returns the number of timer keys the node currently holds
// generation bookkeeping for: every key armed since the last crash. The
// bookkeeping lives as long as the incarnation, so a handler must draw its
// keys from a bounded set; this is the diagnostic leak tests read.
func (n *Node) TimerNames() int { return len(n.timerGen) + len(n.namedGen) }
