package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
)

// This file polices the ADT-specialized fast-path checkers (DESIGN.md,
// decision 15) with the exact engines as the oracle: hand-built
// adversarial traces at the fragment boundary, randomized sweeps, and
// the FuzzFastpathVsExact native fuzz target.

// fastBudget is ample for every trace shape in this file; only the
// exact side spends it (the fast path spends no budget by design).
const fastBudget = 2_000_000

func inv(c string, in trace.Value) trace.Action { return trace.Invoke(trace.ClientID(c), 1, in) }
func res(c string, in, out trace.Value) trace.Action {
	return trace.Response(trace.ClientID(c), 1, in, out)
}

// boundaryCase is one hand-built trace at a fragment boundary.
type boundaryCase struct {
	name string
	tr   trace.Trace
}

// boundaryTables lists every folder's boundary table, for the tests
// that sweep all of them.
var boundaryTables = []struct {
	name  string
	f     adt.Folder
	cases func() []boundaryCase
}{
	{"register", adt.Register{}, registerBoundaryCases},
	{"queue", adt.Queue{}, queueBoundaryCases},
	{"mutex", adt.Mutex{}, mutexBoundaryCases},
	{"stack", adt.Stack{}, stackBoundaryCases},
	{"consensus", adt.Consensus{}, consensusBoundaryCases},
}

// runBoundary holds the fast paths of f to the exact engines on every
// case, one subtest each.
func runBoundary(t *testing.T, f adt.Folder, cases []boundaryCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Fastpath(context.Background(), f, tc.tr, check.WithBudget(fastBudget)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastpathRegisterBoundary drives the register core across its
// fragment boundary: in-fragment accepts and rejects, pending
// operations, duplicate values and inputs (fallback), semantically
// impossible outputs, and ill-formed shapes.
func TestFastpathRegisterBoundary(t *testing.T) {
	runBoundary(t, adt.Register{}, registerBoundaryCases())
}

func registerBoundaryCases() []boundaryCase {
	rd := func(tag string) trace.Value { return adt.Tag(adt.ReadInput(), tag) }
	return []boundaryCase{
		{"sequential write read", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput("a")),
		}},
		{"bottom read before write", trace.Trace{
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput(adt.Bottom)),
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
		}},
		{"bottom read after closed write rejects", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput(adt.Bottom)),
		}},
		{"stale read after intervening write rejects", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c1", adt.WriteInput("b")), res("c1", adt.WriteInput("b"), adt.WriteOutput()),
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput("a")),
		}},
		{"concurrent writes allow either read order", trace.Trace{
			inv("c1", adt.WriteInput("a")),
			inv("c2", adt.WriteInput("b")),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("b")),
			res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			res("c2", adt.WriteInput("b"), adt.WriteOutput()),
			inv("c3", rd("2")), res("c3", rd("2"), adt.ReadOutput("a")),
		}},
		{"pending write observed by read", trace.Trace{
			inv("c1", adt.WriteInput("a")),
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput("a")),
		}},
		{"read of never-written value rejects", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput("z")),
		}},
		{"write answered as read rejects", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.ReadOutput("a")),
		}},
		{"duplicate write value falls back", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c2", adt.Tag(adt.WriteInput("a"), "2")), res("c2", adt.Tag(adt.WriteInput("a"), "2"), adt.WriteOutput()),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
		}},
		{"duplicate untagged reads fall back", trace.Trace{
			inv("c1", adt.ReadInput()), res("c1", adt.ReadInput(), adt.ReadOutput(adt.Bottom)),
			inv("c2", adt.ReadInput()), res("c2", adt.ReadInput(), adt.ReadOutput(adt.Bottom)),
		}},
		{"grammar-invalid input falls back", trace.Trace{
			inv("c1", "zap:q"), res("c1", "zap:q", adt.ReadOutput(adt.Bottom)),
		}},
		{"write of bottom falls back", trace.Trace{
			inv("c1", adt.WriteInput(adt.Bottom)), res("c1", adt.WriteInput(adt.Bottom), adt.WriteOutput()),
		}},
		{"crossing blocks reject", trace.Trace{
			inv("c1", adt.WriteInput("a")), res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c2", adt.WriteInput("b")), res("c2", adt.WriteInput("b"), adt.WriteOutput()),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
		}},
		{"late-joining reads stay linearizable", trace.Trace{
			inv("c1", adt.WriteInput("a")),
			inv("c2", rd("1")), res("c2", rd("1"), adt.ReadOutput("a")),
			res("c1", adt.WriteInput("a"), adt.WriteOutput()),
			inv("c2", adt.WriteInput("b")), res("c2", adt.WriteInput("b"), adt.WriteOutput()),
			inv("c3", rd("2")), res("c3", rd("2"), adt.ReadOutput("b")),
			inv("c1", rd("3")), res("c1", rd("3"), adt.ReadOutput("b")),
		}},
		{"response without invocation is ill-formed", trace.Trace{
			res("c1", adt.WriteInput("a"), adt.WriteOutput()),
		}},
		{"double invocation is ill-formed", trace.Trace{
			inv("c1", adt.WriteInput("a")), inv("c1", adt.WriteInput("b")),
		}},
		{"switch action is ill-formed", trace.Trace{
			inv("c1", adt.WriteInput("a")),
			trace.Switch(trace.ClientID("c1"), 1, adt.WriteInput("a"), "a"),
		}},
	}
}

// TestFastpathQueueBoundary drives the streaming queue core across its
// fragment boundary, one-shot and on every session prefix.
func TestFastpathQueueBoundary(t *testing.T) {
	runBoundary(t, adt.Queue{}, queueBoundaryCases())
}

func queueBoundaryCases() []boundaryCase {
	dq := func(tag string) trace.Value { return adt.Tag(adt.DeqInput(), tag) }
	return []boundaryCase{
		{"fifo order accepted", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c1", adt.EnqInput("b")), res("c1", adt.EnqInput("b"), adt.WriteOutput()),
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput("a")),
			inv("c2", dq("2")), res("c2", dq("2"), adt.ReadOutput("b")),
		}},
		{"fifo inversion rejects", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c1", adt.EnqInput("b")), res("c1", adt.EnqInput("b"), adt.WriteOutput()),
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput("b")),
			inv("c2", dq("2")), res("c2", dq("2"), adt.ReadOutput("a")),
		}},
		{"overlapping enqueues dequeue either way", trace.Trace{
			inv("c1", adt.EnqInput("a")),
			inv("c2", adt.EnqInput("b")),
			res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			res("c2", adt.EnqInput("b"), adt.WriteOutput()),
			inv("c3", dq("1")), res("c3", dq("1"), adt.ReadOutput("b")),
			inv("c3", dq("2")), res("c3", dq("2"), adt.ReadOutput("a")),
		}},
		{"undequeued front blocks rejects", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c1", adt.EnqInput("b")), res("c1", adt.EnqInput("b"), adt.WriteOutput()),
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput("b")),
		}},
		{"dequeue before enqueue rejects", trace.Trace{
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput("a")),
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
		}},
		{"dequeue of never-enqueued value rejects", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput("z")),
		}},
		{"empty dequeue falls back", trace.Trace{
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput(adt.Bottom)),
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
		}},
		{"pending operation falls back", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c2", dq("1")),
		}},
		{"duplicate enqueue value falls back", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c2", adt.Tag(adt.EnqInput("a"), "2")), res("c2", adt.Tag(adt.EnqInput("a"), "2"), adt.WriteOutput()),
			inv("c3", dq("1")), res("c3", dq("1"), adt.ReadOutput("a")),
		}},
		{"a value dequeued at both ends comes back under a new tag", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c3", dq("1")), res("c3", dq("1"), adt.ReadOutput("a")),
			inv("c2", adt.Tag(adt.EnqInput("a"), "2")), res("c2", adt.Tag(adt.EnqInput("a"), "2"), adt.WriteOutput()),
			inv("c3", dq("2")), res("c3", dq("2"), adt.ReadOutput("a")),
			inv("c3", dq("3")), res("c3", dq("3"), adt.ReadOutput("a")),
		}},
		{"duplicate enqueue value while the first is open falls back", trace.Trace{
			inv("c1", adt.EnqInput("a")),
			inv("c2", adt.Tag(adt.EnqInput("a"), "2")),
			res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			res("c2", adt.Tag(adt.EnqInput("a"), "2"), adt.WriteOutput()),
			inv("c3", dq("1")), res("c3", dq("1"), adt.ReadOutput("a")),
		}},
		// a#2, invoked while a is in flight, is queued behind h and ahead
		// of b: the first dequeue must take a#2, not the earlier-invoked
		// a, or b's dequeue finds a#2 owed and rejects a history that
		// linearizes as a#2, h, b, a.
		{"a value enqueued again while in flight falls back", trace.Trace{
			inv("c1", adt.EnqInput("a")),
			inv("c2", adt.EnqInput("h")),
			inv("c3", adt.Tag(adt.EnqInput("a"), "2")),
			res("c2", adt.EnqInput("h"), adt.WriteOutput()),
			res("c3", adt.Tag(adt.EnqInput("a"), "2"), adt.WriteOutput()),
			inv("c5", adt.EnqInput("b")), res("c5", adt.EnqInput("b"), adt.WriteOutput()),
			inv("c4", dq("1")), res("c4", dq("1"), adt.ReadOutput("a")),
			inv("c4", dq("2")), res("c4", dq("2"), adt.ReadOutput("h")),
			inv("c4", dq("3")), res("c4", dq("3"), adt.ReadOutput("b")),
			res("c1", adt.EnqInput("a"), adt.WriteOutput()),
		}},
		{"double dequeue of one value rejects", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c2", dq("1")), res("c2", dq("1"), adt.ReadOutput("a")),
			inv("c2", dq("2")), res("c2", dq("2"), adt.ReadOutput("a")),
		}},
		{"enqueue answered as dequeue rejects", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.ReadOutput("a")),
		}},
		// Condition (c) with responded, never-dequeued values on both
		// sides of the dequeued one: a overlaps b's enqueue and z follows
		// it, so neither blocks b.
		{"undequeued values around a dequeued one accept", trace.Trace{
			inv("c1", adt.EnqInput("a")),
			inv("c2", adt.EnqInput("b")),
			res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			res("c2", adt.EnqInput("b"), adt.WriteOutput()),
			inv("c1", adt.EnqInput("z")), res("c1", adt.EnqInput("z"), adt.WriteOutput()),
			inv("c3", dq("1")), res("c3", dq("1"), adt.ReadOutput("b")),
		}},
		// With a responded before b is invoked, a blocks b; z, overlapping
		// b's enqueue, stays harmless.
		{"undequeued value wholly before a dequeued one rejects", trace.Trace{
			inv("c1", adt.EnqInput("a")), res("c1", adt.EnqInput("a"), adt.WriteOutput()),
			inv("c2", adt.EnqInput("b")),
			inv("c1", adt.EnqInput("z")),
			res("c2", adt.EnqInput("b"), adt.WriteOutput()),
			res("c1", adt.EnqInput("z"), adt.WriteOutput()),
			inv("c3", dq("1")), res("c3", dq("1"), adt.ReadOutput("b")),
		}},
	}
}

// TestFastpathMutexBoundary drives the streaming mutex core: legal
// alternations, the counting rejects, helper consumption, and the
// fragment exits (error outputs, duplicate inputs, stuck greedy).
func TestFastpathMutexBoundary(t *testing.T) {
	runBoundary(t, adt.Mutex{}, mutexBoundaryCases())
}

func mutexBoundaryCases() []boundaryCase {
	lk := func(tag string) trace.Value { return adt.Tag(adt.LockInput(), tag) }
	ul := func(tag string) trace.Value { return adt.Tag(adt.UnlockInput(), tag) }
	return []boundaryCase{
		{"sequential lock unlock accepted", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
		}},
		{"contended handoff accepted", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c2", lk("2")),
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
			res("c2", lk("2"), adt.WriteOutput()),
		}},
		{"two closed acquires without release reject", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c2", lk("2")), res("c2", lk("2"), adt.WriteOutput()),
		}},
		{"acquires overlapping a pending release accept", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c3", ul("1")),
			inv("c2", lk("2")), res("c2", lk("2"), adt.WriteOutput()),
			res("c3", ul("1"), adt.WriteOutput()),
		}},
		{"release before any acquire rejects", trace.Trace{
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
		}},
		{"release overlapping a pending acquire accepts", trace.Trace{
			inv("c2", lk("1")),
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
			res("c2", lk("1"), adt.WriteOutput()),
		}},
		{"double release of one acquire rejects", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
			inv("c2", ul("2")), res("c2", ul("2"), adt.WriteOutput()),
		}},
		{"held error output falls back", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.ErrOutput("held")),
		}},
		{"free error output falls back", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c2", lk("2")), res("c2", lk("2"), adt.ErrOutput("held")),
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
		}},
		{"duplicate untagged locks fall back", trace.Trace{
			inv("c1", adt.LockInput()), res("c1", adt.LockInput(), adt.WriteOutput()),
			inv("c2", adt.LockInput()), res("c2", adt.LockInput(), adt.WriteOutput()),
		}},
		{"grammar-invalid input falls back", trace.Trace{
			inv("c1", "zap:q"), res("c1", "zap:q", adt.WriteOutput()),
		}},
		{"pending acquire never responding accepted", trace.Trace{
			inv("c1", lk("1")), res("c1", lk("1"), adt.WriteOutput()),
			inv("c2", lk("2")),
			inv("c1", ul("1")), res("c1", ul("1"), adt.WriteOutput()),
		}},
		{"helper taken after many completed operations accepted", helperAfterCompleted(70, lk, ul)},
	}
}

// helperAfterCompleted is pairs sequential lock/unlock pairs (2·pairs
// completed operations, which the core has forgotten by then) followed
// by a release that finds the lock free and takes a pending acquire as
// its helper: the helper search walks every completed acquire's id.
func helperAfterCompleted(pairs int, lk, ul func(string) trace.Value) trace.Trace {
	var tr trace.Trace
	for i := 0; i < pairs; i++ {
		id := "p" + strconv.Itoa(i)
		tr = append(tr,
			inv("c1", lk(id)), res("c1", lk(id), adt.WriteOutput()),
			inv("c1", ul(id)), res("c1", ul(id), adt.WriteOutput()))
	}
	return append(tr,
		inv("c2", lk("h")),
		inv("c1", lk("x")), res("c1", lk("x"), adt.WriteOutput()),
		inv("c1", ul("x")),
		inv("c3", ul("y")),
		res("c1", ul("x"), adt.WriteOutput()),
		res("c3", ul("y"), adt.WriteOutput()),
		res("c2", lk("h"), adt.WriteOutput()))
}

// TestFastpathStackBoundary drives the streaming stack core: LIFO
// accepts, value-based rejects, helper pops, and the fragment exits
// (empty pops, wrong helper guesses, stuck greedy).
func TestFastpathStackBoundary(t *testing.T) {
	runBoundary(t, adt.Stack{}, stackBoundaryCases())
}

func stackBoundaryCases() []boundaryCase {
	pp := func(tag string) trace.Value { return adt.Tag(adt.PopInput(), tag) }
	return []boundaryCase{
		{"lifo order accepted", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c1", adt.PushInput("b")), res("c1", adt.PushInput("b"), adt.WriteOutput()),
			inv("c2", pp("1")), res("c2", pp("1"), adt.ReadOutput("b")),
			inv("c2", pp("2")), res("c2", pp("2"), adt.ReadOutput("a")),
		}},
		{"fifo pop order exits and rejects", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c1", adt.PushInput("b")), res("c1", adt.PushInput("b"), adt.WriteOutput()),
			inv("c2", pp("1")), res("c2", pp("1"), adt.ReadOutput("a")),
			inv("c2", pp("2")), res("c2", pp("2"), adt.ReadOutput("b")),
		}},
		{"pop of never-pushed value rejects", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c2", pp("1")), res("c2", pp("1"), adt.ReadOutput("z")),
		}},
		{"double pop of one value rejects", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c2", pp("1")), res("c2", pp("1"), adt.ReadOutput("a")),
			inv("c2", pp("2")), res("c2", pp("2"), adt.ReadOutput("a")),
		}},
		{"empty pop falls back", trace.Trace{
			inv("c2", pp("1")), res("c2", pp("1"), adt.ReadOutput(adt.Bottom)),
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
		}},
		{"pending push popped", trace.Trace{
			inv("c1", adt.PushInput("a")),
			inv("c2", pp("1")), res("c2", pp("1"), adt.ReadOutput("a")),
			res("c1", adt.PushInput("a"), adt.WriteOutput()),
		}},
		{"helper pop uncovers lower value", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c1", adt.PushInput("b")), res("c1", adt.PushInput("b"), adt.WriteOutput()),
			inv("c2", pp("1")),
			inv("c3", pp("2")), res("c3", pp("2"), adt.ReadOutput("a")),
			res("c2", pp("1"), adt.ReadOutput("b")),
		}},
		{"wrong helper guess exits and rejects", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c1", adt.PushInput("b")), res("c1", adt.PushInput("b"), adt.WriteOutput()),
			inv("c2", pp("1")),
			inv("c3", pp("2")), res("c3", pp("2"), adt.ReadOutput("a")),
			res("c2", pp("1"), adt.ReadOutput("a")),
		}},
		// The helper guessed to pop b (pop 1, the oldest) is still open
		// when pop 2 returns b: the guess was wrong, not the history —
		// pop 2 took b before pop 3 took a, and pop 1 is still pending.
		{"value of an open helper's guess exits and accepts", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c1", adt.PushInput("b")), res("c1", adt.PushInput("b"), adt.WriteOutput()),
			inv("c2", pp("1")),
			inv("c1", pp("2")),
			inv("c3", pp("3")), res("c3", pp("3"), adt.ReadOutput("a")),
			res("c1", pp("2"), adt.ReadOutput("b")),
		}},
		{"push answered as pop rejects", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.ReadOutput("a")),
		}},
		{"duplicate push value falls back", trace.Trace{
			inv("c1", adt.PushInput("a")), res("c1", adt.PushInput("a"), adt.WriteOutput()),
			inv("c2", adt.Tag(adt.PushInput("a"), "2")), res("c2", adt.Tag(adt.PushInput("a"), "2"), adt.WriteOutput()),
			inv("c3", pp("1")), res("c3", pp("1"), adt.ReadOutput("a")),
		}},
		{"grammar-invalid input falls back", trace.Trace{
			inv("c1", "zap:q"), res("c1", "zap:q", adt.WriteOutput()),
		}},
	}
}

// TestFastpathConsensusBoundary drives the consensus core: agreement,
// split decisions, unproposed decisions, and fallback on grammar exits.
func TestFastpathConsensusBoundary(t *testing.T) {
	runBoundary(t, adt.Consensus{}, consensusBoundaryCases())
}

func consensusBoundaryCases() []boundaryCase {
	p := func(v trace.Value, tag string) trace.Value { return adt.Tag(adt.ProposeInput(v), tag) }
	return []boundaryCase{
		{"first proposal decided by all", trace.Trace{
			inv("c1", p("a", "1")), res("c1", p("a", "1"), adt.DecideOutput("a")),
			inv("c2", p("b", "2")), res("c2", p("b", "2"), adt.DecideOutput("a")),
		}},
		{"split decision rejects", trace.Trace{
			inv("c1", p("a", "1")), res("c1", p("a", "1"), adt.DecideOutput("a")),
			inv("c2", p("b", "2")), res("c2", p("b", "2"), adt.DecideOutput("b")),
		}},
		{"decision of unproposed value rejects", trace.Trace{
			inv("c1", p("a", "1")), res("c1", p("a", "1"), adt.DecideOutput("b")),
		}},
		{"concurrent proposals decide the later one", trace.Trace{
			inv("c1", p("a", "1")),
			inv("c2", p("b", "2")),
			res("c2", p("b", "2"), adt.DecideOutput("b")),
			res("c1", p("a", "1"), adt.DecideOutput("b")),
		}},
		{"decision proposed only after first response rejects", trace.Trace{
			inv("c1", p("a", "1")), res("c1", p("a", "1"), adt.DecideOutput("b")),
			inv("c2", p("b", "2")), res("c2", p("b", "2"), adt.DecideOutput("b")),
		}},
		{"same value proposed twice stays in fragment", trace.Trace{
			inv("c1", p("a", "1")), res("c1", p("a", "1"), adt.DecideOutput("a")),
			inv("c2", p("a", "2")), res("c2", p("a", "2"), adt.DecideOutput("a")),
		}},
		{"pending proposal decided by others", trace.Trace{
			inv("c1", p("a", "1")),
			inv("c2", p("b", "2")), res("c2", p("b", "2"), adt.DecideOutput("a")),
		}},
		{"grammar-invalid proposal falls back", trace.Trace{
			inv("c1", "q:a"), res("c1", "q:a", adt.DecideOutput("a")),
		}},
	}
}

// randomFolder is one specialized folder's pools for the seeded random
// traces.
type randomFolder struct {
	name    string
	f       adt.Folder
	inputs  func(r *rand.Rand, i int) trace.Value
	outputs []trace.Value
}

var randomFolders = []randomFolder{
	{
		name: "register",
		f:    adt.Register{},
		inputs: func(r *rand.Rand, i int) trace.Value {
			switch r.Intn(4) {
			case 0:
				return adt.WriteInput(trace.Value("v" + strconv.Itoa(r.Intn(6))))
			case 1: // untagged read: duplicates force fallback
				return adt.ReadInput()
			default:
				return adt.Tag(adt.ReadInput(), strconv.Itoa(i))
			}
		},
		outputs: []trace.Value{adt.WriteOutput(), adt.ReadOutput(adt.Bottom),
			adt.ReadOutput("v0"), adt.ReadOutput("v1"), adt.ReadOutput("v2")},
	},
	{
		name: "queue",
		f:    adt.Queue{},
		inputs: func(r *rand.Rand, i int) trace.Value {
			switch r.Intn(4) {
			case 0, 1:
				return adt.EnqInput(trace.Value("v" + strconv.Itoa(r.Intn(6))))
			default:
				return adt.Tag(adt.DeqInput(), strconv.Itoa(i))
			}
		},
		outputs: []trace.Value{adt.WriteOutput(), adt.ReadOutput(adt.Bottom),
			adt.ReadOutput("v0"), adt.ReadOutput("v1"), adt.ReadOutput("v2")},
	},
	{
		name: "consensus",
		f:    adt.Consensus{},
		inputs: func(r *rand.Rand, i int) trace.Value {
			return adt.Tag(adt.ProposeInput(trace.Value("v"+strconv.Itoa(r.Intn(3)))), strconv.Itoa(i))
		},
		outputs: []trace.Value{adt.DecideOutput("v0"), adt.DecideOutput("v1"), adt.DecideOutput("v2")},
	},
	{
		name: "mutex",
		f:    adt.Mutex{},
		inputs: func(r *rand.Rand, i int) trace.Value {
			switch r.Intn(6) {
			case 0: // untagged: duplicates force fallback
				return adt.LockInput()
			case 1, 2:
				return adt.Tag(adt.UnlockInput(), strconv.Itoa(i))
			default:
				return adt.Tag(adt.LockInput(), strconv.Itoa(i))
			}
		},
		outputs: []trace.Value{adt.WriteOutput(), adt.WriteOutput(), adt.WriteOutput(),
			adt.ErrOutput("held"), adt.ErrOutput("free")},
	},
	{
		name: "stack",
		f:    adt.Stack{},
		inputs: func(r *rand.Rand, i int) trace.Value {
			switch r.Intn(4) {
			case 0, 1:
				return adt.PushInput(trace.Value("v" + strconv.Itoa(r.Intn(6))))
			default:
				return adt.Tag(adt.PopInput(), strconv.Itoa(i))
			}
		},
		outputs: []trace.Value{adt.WriteOutput(), adt.ReadOutput(adt.Bottom),
			adt.ReadOutput("v0"), adt.ReadOutput("v1"), adt.ReadOutput("v2")},
	},
}

// randomTraces generates the seeded random traces of folder fc — mixing
// in-fragment, fallback and ill-formed shapes — and hands each to visit.
func randomTraces(fc randomFolder, visit func(iter int, tr trace.Trace)) {
	clients := []trace.ClientID{"c1", "c2", "c3"}
	r := rand.New(rand.NewSource(0x5ca1ab1e))
	for iter := 0; iter < 300; iter++ {
		n := 2 + r.Intn(13)
		pending := map[trace.ClientID]trace.Value{}
		var tr trace.Trace
		for i := 0; i < n; i++ {
			c := clients[r.Intn(len(clients))]
			if in, busy := pending[c]; busy && r.Intn(5) > 0 {
				if r.Intn(12) == 0 {
					in = fc.inputs(r, 1000+i) // mismatched response: ill-formed
				}
				tr = append(tr, trace.Response(c, 1, in, fc.outputs[r.Intn(len(fc.outputs))]))
				delete(pending, c)
			} else if !busy {
				in := fc.inputs(r, i)
				tr = append(tr, trace.Invoke(c, 1, in))
				pending[c] = in
			}
		}
		// Half the traces are completed so the queue core sees
		// complete histories often.
		if r.Intn(2) == 0 {
			for c, in := range pending {
				tr = append(tr, trace.Response(c, 1, in, fc.outputs[r.Intn(len(fc.outputs))]))
			}
		}
		visit(iter, tr)
	}
}

// agree fails the test on a disagreement and skips it when the exact
// engine gave up.
func agree(t *testing.T, iter int, what string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var d *Disagreement
	if errors.As(err, &d) {
		t.Fatalf("iter %d%s: %v", iter, what, err)
	}
	t.Skipf("iter %d%s: exact engine gave up: %v", iter, what, err)
}

// TestFastpathRandomizedAgreement sweeps the seeded random traces
// through the full fast-vs-exact harness for every specialized folder,
// and through the operation path (Ops).
func TestFastpathRandomizedAgreement(t *testing.T) {
	for _, fc := range randomFolders {
		t.Run(fc.name, func(t *testing.T) {
			randomTraces(fc, func(iter int, tr trace.Trace) {
				agree(t, iter, "", Fastpath(context.Background(), fc.f, tr, check.WithBudget(fastBudget)))
				agree(t, iter, " (ops)", Ops(context.Background(), fc.f, tr, check.WithBudget(fastBudget)))
				// Every few iterations, the same trace through the
				// SLin(1,2) fast session against the exact slin engine
				// (Theorem 2 grounds the comparison).
				if iter%5 == 0 {
					agree(t, iter, " (slin)", FastpathSLin(context.Background(), fc.f, slin.UniversalRInit{}, 2, tr, check.WithBudget(fastBudget)))
				}
			})
		})
	}
}

// TestFastpathCollidingDigests runs every boundary row and every seeded
// random trace with the cores' digest tables forced to collide on every
// string (lin.CollidingDigests): each trace of two or more inputs is a
// false alarm and leaves its fragment, and every verdict — one-shot, per
// session prefix, SLin(1,2) — must still be the exact engines'. This is
// the digest set's soundness line: a hit is only ever a FastExit, a
// reject never rests on it, and the queue's index stays exact.
func TestFastpathCollidingDigests(t *testing.T) {
	ctx := context.Background()
	for _, tb := range boundaryTables {
		t.Run(tb.name, func(t *testing.T) {
			f := lin.CollidingDigests{Folder: tb.f}
			for _, tc := range tb.cases() {
				if err := Fastpath(ctx, f, tc.tr, check.WithBudget(fastBudget)); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		})
	}
	for _, fc := range randomFolders {
		t.Run("random/"+fc.name, func(t *testing.T) {
			f := lin.CollidingDigests{Folder: fc.f}
			randomTraces(fc, func(iter int, tr trace.Trace) {
				agree(t, iter, "", Fastpath(ctx, f, tr, check.WithBudget(fastBudget)))
				if iter%5 == 0 {
					agree(t, iter, " (slin)", FastpathSLin(ctx, f, slin.UniversalRInit{}, 2, tr, check.WithBudget(fastBudget)))
				}
			})
		})
	}
}

// TestFastpathWitnessParity: whether a session asked for witnesses
// changes what a core keeps, never what it decides. On every boundary
// row and seeded random trace, the one-shot check and every session
// prefix give the same verdict and reason with witnesses on and off, and
// the witness-on results still verify. Node counts are equal one-shot
// and, in the sessions, up to the first fallback; after it the
// witness-off session may have cut (DESIGN.md, decision 26) and replays
// only what followed its last cut, so it spends no more than the other.
func TestFastpathWitnessParity(t *testing.T) {
	ctx := context.Background()
	on := []check.Option{check.WithBudget(fastBudget), check.WithWitness(true)}
	off := []check.Option{check.WithBudget(fastBudget), check.WithWitness(false)}
	parity := func(f adt.Folder, tr trace.Trace) error {
		// equal says the node counts must match; otherwise the witness-off
		// count may only be lower.
		same := func(what string, equal bool, a, b lin.Result, aerr, berr error) error {
			if aerr != nil || berr != nil {
				return fmt.Errorf("%s: witnesses on: %v, off: %v", what, aerr, berr)
			}
			if a.OK != b.OK || a.Reason != b.Reason || b.Nodes > a.Nodes || equal && a.Nodes != b.Nodes {
				return disagree(tr, "%s: witnesses on %v (%q, %d nodes), off %v (%q, %d nodes)",
					what, a.OK, a.Reason, a.Nodes, b.OK, b.Reason, b.Nodes)
			}
			if len(b.Witness) != 0 {
				return disagree(tr, "%s: a witness of %d entries with witnesses off", what, len(b.Witness))
			}
			return nil
		}
		// Witnesses verify on the prefix whose inputs all parse (Fastpath).
		verifiable := func(k int) bool {
			for _, a := range tr[:k] {
				if a.Kind == trace.Inv && !f.ValidInput(a.Input) {
					return false
				}
			}
			return true
		}
		a, aerr := lin.Check(ctx, f, tr, on...)
		b, berr := lin.Check(ctx, f, tr, off...)
		if err := same("one-shot", true, a, b, aerr, berr); err != nil {
			return err
		}
		if a.OK && len(a.Witness) > 0 && verifiable(len(tr)) {
			if err := lin.VerifyWitness(f, tr, a.Witness); err != nil {
				return disagree(tr, "one-shot witness invalid: %v", err)
			}
		}
		son, soff := lin.NewSession(ctx, f, on...), lin.NewSession(ctx, f, off...)
		// fast holds until the witness-on session first spends other than
		// one node an action, i.e. up to its first fallback (both sessions'
		// cores leave their fragment at the same action).
		fast := true
		for k, act := range tr {
			if err := errors.Join(son.Feed(act), soff.Feed(act)); err != nil {
				return fmt.Errorf("feed %d: %w", k, err)
			}
			a, aerr := son.Result()
			b, berr := soff.Result()
			fast = fast && a.Nodes == k+1
			if err := same(fmt.Sprintf("session prefix %d", k+1), fast, a, b, aerr, berr); err != nil {
				return err
			}
			if a.OK && verifiable(k+1) {
				if err := lin.VerifyWitness(f, tr[:k+1], a.Witness); err != nil {
					return disagree(tr[:k+1], "session prefix %d witness invalid: %v", k+1, err)
				}
			}
		}
		return nil
	}
	for _, tb := range boundaryTables {
		t.Run(tb.name, func(t *testing.T) {
			for _, tc := range tb.cases() {
				if err := parity(tb.f, tc.tr); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		})
	}
	for _, fc := range randomFolders {
		t.Run("random/"+fc.name, func(t *testing.T) {
			randomTraces(fc, func(iter int, tr trace.Trace) {
				agree(t, iter, "", parity(fc.f, tr))
			})
		})
	}
}

// TestFastpathLongRegisterSession pins the fast session on a long
// in-fragment register history (the SMR per-key shape): verdict
// positive, witness valid, and no budget spend even far past a budget
// an exact session would exhaust.
// TestFastpathSLinSessionBoundary drives the SLin(1,n) fast session
// across its fragment boundary: in-fragment accepts and rejects,
// fragment exits, and — specific to slin — switch actions, which force
// the fall-back-and-replay through the exact frontiers (Theorem 2's sig
// restriction excludes them from the fast fragment).
func TestFastpathSLinSessionBoundary(t *testing.T) {
	w := adt.WriteInput("a")
	rd := adt.Tag(adt.ReadInput(), "1")
	pa := adt.Tag(adt.ProposeInput("a"), "q1")
	pb := adt.Tag(adt.ProposeInput("b"), "q2")
	cases := []struct {
		name  string
		f     adt.Folder
		rinit slin.RInit
		tr    trace.Trace
	}{
		{"register in-fragment accept", adt.Register{}, slin.UniversalRInit{}, trace.Trace{
			inv("c1", w), res("c1", w, adt.WriteOutput()),
			inv("c2", rd), res("c2", rd, adt.ReadOutput("a")),
		}},
		{"register in-fragment reject", adt.Register{}, slin.UniversalRInit{}, trace.Trace{
			inv("c1", w), res("c1", w, adt.WriteOutput()),
			inv("c2", rd), res("c2", rd, adt.ReadOutput("z")),
		}},
		{"register duplicate write falls back", adt.Register{}, slin.UniversalRInit{}, trace.Trace{
			inv("c1", w), res("c1", w, adt.WriteOutput()),
			inv("c2", adt.Tag(adt.WriteInput("a"), "2")), res("c2", adt.Tag(adt.WriteInput("a"), "2"), adt.WriteOutput()),
		}},
		{"register abort switch falls back", adt.Register{}, slin.UniversalRInit{}, trace.Trace{
			inv("c1", w), res("c1", w, adt.WriteOutput()),
			inv("c2", rd),
			trace.Switch("c2", 2, rd, slin.EncodeHistory(trace.History{w, rd})),
		}},
		{"consensus in-fragment accept", adt.Consensus{}, slin.ConsensusRInit{}, trace.Trace{
			inv("q1", pa), res("q1", pa, adt.DecideOutput("a")),
			inv("q2", pb), res("q2", pb, adt.DecideOutput("a")),
		}},
		{"consensus abort switch falls back", adt.Consensus{}, slin.ConsensusRInit{}, trace.Trace{
			inv("q1", pa), inv("q2", pb),
			res("q1", pa, adt.DecideOutput("a")),
			trace.Switch("q2", 2, pb, "a"),
		}},
		{"consensus reject then abort switch", adt.Consensus{}, slin.ConsensusRInit{}, trace.Trace{
			inv("q1", pa), res("q1", pa, adt.DecideOutput("a")),
			inv("q2", pb), res("q2", pb, adt.DecideOutput("b")),
			inv("q3", adt.Tag(adt.ProposeInput("c"), "q3")),
			trace.Switch("q3", 2, adt.Tag(adt.ProposeInput("c"), "q3"), "c"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := FastpathSLin(context.Background(), tc.f, tc.rinit, 2, tc.tr, check.WithBudget(fastBudget)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastpathSLinLongSession is TestFastpathLongRegisterSession's slin
// twin: the fast SLin(1,2) session must spend no budget while the trace
// stays in the register fragment.
func TestFastpathSLinLongSession(t *testing.T) {
	const ops = 2_000
	sess, err := slin.NewSession(context.Background(), adt.Register{}, slin.UniversalRInit{}, 1, 2, check.WithBudget(ops/10))
	if err != nil {
		t.Fatal(err)
	}
	cur := trace.Value(adt.Bottom)
	for i := 0; i < ops; i++ {
		var in trace.Value
		out := adt.WriteOutput()
		if i%3 == 0 {
			in = adt.WriteInput(trace.Value("v" + strconv.Itoa(i)))
			cur = trace.Value("v" + strconv.Itoa(i))
		} else {
			in = adt.Tag(adt.ReadInput(), strconv.Itoa(i))
			out = adt.ReadOutput(cur)
		}
		if err := sess.Feed(trace.Invoke("c1", 1, in)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := sess.Feed(trace.Response("c1", 1, in, out)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatalf("fast slin session spent budget on an in-fragment trace: %v", err)
	}
	if !got.OK {
		t.Fatalf("long register history rejected: %s", got.Reason)
	}
	if got.Nodes != 2*ops {
		t.Fatalf("fast slin session accounting: %d nodes for %d actions", got.Nodes, 2*ops)
	}
}

func TestFastpathLongRegisterSession(t *testing.T) {
	const ops = 5_000
	sess := lin.NewSession(context.Background(), adt.Register{}, check.WithBudget(ops/10))
	cur := trace.Value("")
	var tr trace.Trace
	r := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		c := trace.ClientID("c1")
		if r.Intn(3) == 0 {
			in := adt.WriteInput(trace.Value("v" + strconv.Itoa(i)))
			tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.WriteOutput()))
			cur = trace.Value("v" + strconv.Itoa(i))
		} else {
			in := adt.Tag(adt.ReadInput(), strconv.Itoa(i))
			out := adt.ReadOutput(cur)
			if cur == "" {
				out = adt.ReadOutput(adt.Bottom)
			}
			tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, out))
		}
	}
	if err := sess.FeedAll(tr); err != nil {
		t.Fatalf("fast session spent budget on an in-fragment trace: %v", err)
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK {
		t.Fatalf("long register history rejected: %s", got.Reason)
	}
	if err := lin.VerifyWitness(adt.Register{}, tr, got.Witness); err != nil {
		t.Fatalf("invalid witness on long history: %v", err)
	}
}

// FuzzFastpathVsExact fuzzes the specialized checkers against the exact
// engines: byte-decoded register/queue/consensus/mutex/stack traces
// (the selector extending the sibling targets' fuzzADT with the three
// fast-path containers, plus a completion bit so the queue core's
// complete-trace fragment is hit) must agree on verdict, and fast
// witnesses must verify. The selector's top bit runs the trace with the
// cores' digest tables forced to collide (lin.CollidingDigests), where
// the same agreement is the digest set's soundness line. Its next bit is
// the witness-off arm the pipelines run: the trace follows a quiescent
// prefix that fills the first log chunk, so the session cuts there
// (DESIGN.md, decision 26) and any later exit falls back from the cut.
// The bit below it runs the same arm after a prefix made of the pool's
// own inputs and values (repeatPrefix), so the trace repeats them across
// the cut, where the restarted core has forgotten them (decision 35).
// Every trace also runs through the operation path (Ops): a session
// driven by Invoke and Respond must equal the Feed session on every
// prefix (decision 37).
func FuzzFastpathVsExact(f *testing.F) {
	f.Add(uint8(1), []byte{0x00, 0x00, 0x04, 0x00, 0x89, 0x00, 0x8d, 0x02, 0x92, 0x00, 0x96, 0x04})
	f.Add(uint8(0), []byte{0x00, 0x00, 0x01, 0x00, 0x04, 0x00, 0x05, 0x02, 0x02, 0x01})
	f.Add(uint8(2), []byte{0x80, 0x00, 0x84, 0x02, 0x88, 0x04, 0x8c, 0x06, 0x01})
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x03, 0x0c, 0x05, 0x01})
	f.Add(uint8(3), []byte{0x00, 0x00, 0x04, 0x00, 0x09, 0x00, 0x0d, 0x00})
	f.Add(uint8(4), []byte{0x00, 0x00, 0x04, 0x00, 0x8a, 0x03, 0x8e, 0x02, 0x01})
	// Mutex: lock#1 completes, then a release finds the lock free and the
	// helper search walks lock#1's forgotten id to reach the pending
	// lock#2 (decodeTrace caps a trace at 14 actions, so the 140-operation
	// version of this lives in TestFastpathMutexBoundary).
	f.Add(uint8(3), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x11, 0x00, 0x04, 0x00, 0x18, 0x00, 0x04, 0x00, 0x05, 0x00})
	// Queue, condition (c) from each side: x and y enqueued in sequence
	// and both responded, the one dequeue returning x (y stays: accept)
	// or y (x blocks it: reject).
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x04})
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x06})
	// Forced collisions: the register, queue (the reject of condition (c),
	// which the colliding index must still find), mutex and stack seeds
	// above, every second input a false alarm.
	f.Add(uint8(0x80|1), []byte{0x00, 0x00, 0x04, 0x00, 0x89, 0x00, 0x8d, 0x02, 0x92, 0x00, 0x96, 0x04})
	f.Add(uint8(0x80|2), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x06})
	f.Add(uint8(0x80|3), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x11, 0x00, 0x04, 0x00, 0x18, 0x00, 0x04, 0x00, 0x05, 0x00})
	f.Add(uint8(0x80|4), []byte{0x00, 0x00, 0x04, 0x00, 0x8a, 0x03, 0x8e, 0x02, 0x01})
	// Witness-off, after a cut: the register's duplicate untagged reads,
	// the mutex's helper walk, consensus agreement and a stack pop.
	f.Add(uint8(0x40|1), []byte{0x00, 0x00, 0x04, 0x00, 0x11, 0x00, 0x15, 0x02, 0x12, 0x00, 0x16, 0x02})
	f.Add(uint8(0x40|3), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x11, 0x00, 0x04, 0x00, 0x18, 0x00, 0x04, 0x00, 0x05, 0x00})
	f.Add(uint8(0x40|0), []byte{0x00, 0x00, 0x04, 0x00, 0x09, 0x00, 0x0d, 0x02})
	f.Add(uint8(0x40|4), []byte{0x00, 0x00, 0x04, 0x00, 0x8a, 0x03, 0x8e, 0x02, 0x01})
	// Queue, open dequeues: x and y enqueued in sequence, then a dequeue
	// returning y makes x owed. c2's dequeue, open since before, absorbs
	// it and returns x (accept); invoked only after, it cannot (reject).
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x04, 0x00, 0x89, 0x00, 0x8a, 0x00, 0x06, 0x06, 0x05, 0x04})
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x04, 0x00, 0x8a, 0x00, 0x06, 0x06, 0x89, 0x00, 0x05, 0x04})
	// Queue, a value back under a new tag, on the fast path: x enqueued
	// and dequeued, then enqueued again and dequeued (accept), or
	// dequeued twice more (reject); witness-off after a cut, the prefix's
	// x dequeued, enqueued again and dequeued ahead of q7 (reject).
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x04, 0x92, 0x00, 0x06, 0x00, 0x89, 0x00, 0x05, 0x04})
	f.Add(uint8(2), []byte{0x00, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x04, 0x92, 0x00, 0x06, 0x00, 0x89, 0x00, 0x05, 0x04, 0x88, 0x00, 0x04, 0x04})
	f.Add(uint8(0x40|2), []byte{0x11, 0x00, 0x05, 0x04, 0x92, 0x00, 0x06, 0x00, 0x89, 0x00, 0x05, 0x04})
	// Queue, witness-off, after a cut: the prefix leaves x and q7 queued;
	// a dequeue returns x, then x is enqueued again on the fast path, or
	// y is enqueued twice, which leaves the fragment, and the fallback's
	// seed must still hold x.
	f.Add(uint8(0x40|2), []byte{0x88, 0x00, 0x04, 0x04, 0x00, 0x00, 0x04, 0x00})
	f.Add(uint8(0x40|2), []byte{0x88, 0x00, 0x04, 0x04, 0x09, 0x00, 0x05, 0x00, 0x82, 0x00, 0x06, 0x00})
	// Cross-cut repeats, witness-off (repeatPrefix): the register's
	// initial values x and y both read (the second rejects), or x read,
	// then y — no longer initial — rewritten and read, then x rewritten
	// (exit), the untagged read repeating one before the cut; consensus repeating
	// both proposals, agreeing and not; the mutex's four inputs again; the
	// stack popping the y it kept, then x pushed again; the queue taking x
	// again and owing r7 (reject), or taking y, still queued (exit).
	f.Add(uint8(0x20|1), []byte{0x10, 0x00, 0x04, 0x04, 0x88, 0x00, 0x04, 0x06})
	f.Add(uint8(0x20|1), []byte{0x10, 0x00, 0x04, 0x04, 0x08, 0x00, 0x04, 0x00, 0x88, 0x00, 0x04, 0x06, 0x00, 0x00, 0x04, 0x00})
	f.Add(uint8(0x20|0), []byte{0x00, 0x00, 0x04, 0x00, 0x09, 0x00, 0x05, 0x00})
	f.Add(uint8(0x20|0), []byte{0x00, 0x00, 0x04, 0x00, 0x09, 0x00, 0x05, 0x02})
	f.Add(uint8(0x20|3), []byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x00})
	f.Add(uint8(0x20|4), []byte{0x10, 0x00, 0x04, 0x06, 0x00, 0x00, 0x04, 0x00, 0x19, 0x00, 0x05, 0x04, 0x08, 0x00})
	f.Add(uint8(0x20|2), []byte{0x00, 0x00, 0x04, 0x00, 0x11, 0x00, 0x05, 0x06, 0x88, 0x00, 0x04, 0x04})
	f.Add(uint8(0x20|2), []byte{0x08, 0x00, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		folder, inputs, outputs := fastFuzzADT(sel &^ 0xe0)
		var prefix trace.Trace
		opts := []check.Option{check.WithBudget(fuzzBudget)}
		switch {
		case sel&0x20 != 0:
			prefix = repeatPrefix(folder)
			opts = append(opts, check.WithWitness(false))
		case sel&0x40 != 0:
			prefix = quiescentPrefix(folder)
			opts = append(opts, check.WithWitness(false))
		}
		if sel&0x80 != 0 {
			folder = lin.CollidingDigests{Folder: folder}
		}
		tr := decodeTrace(inputs, outputs, data, 0)
		if len(data) > 0 && data[len(data)-1]&1 == 1 {
			tr = completeTrace(tr, outputs)
		}
		whole := append(prefix, tr...)
		err := Ops(context.Background(), folder, whole, opts...)
		if err == nil {
			err = Fastpath(context.Background(), folder, whole, opts...)
		}
		if err == nil {
			return
		}
		var d *Disagreement
		if errors.As(err, &d) {
			t.Fatal(err)
		}
		t.Skip() // budget exhaustion on the exact side: nothing to compare
	})
}

// quiescentPrefix is eight sequential operations by client "q" that
// leave folder f where its fuzz traces start (consensus decides "a"):
// sixteen actions, one full first log chunk, quiescent at the end, so a
// witness-off session cuts right before the fuzz trace. The queue's
// leaves x and q7 queued (x's enqueue is tagged, so the fuzz pool's
// untagged "enq:x" repeats the value, not the input), so the cut's seed
// is not empty.
func quiescentPrefix(f adt.Folder) trace.Trace {
	var tr trace.Trace
	for i := 0; i < 8; i++ {
		tag := "q" + strconv.Itoa(i)
		var in, out trace.Value
		switch f.(type) {
		case adt.Register:
			in, out = adt.Tag(adt.ReadInput(), tag), adt.ReadOutput(adt.Bottom)
		case adt.Consensus:
			in, out = adt.Tag(adt.ProposeInput("a"), tag), adt.DecideOutput("a")
		case adt.Mutex:
			in, out = adt.Tag(adt.LockInput(), tag), adt.WriteOutput()
			if i%2 == 1 {
				in = adt.Tag(adt.UnlockInput(), tag)
			}
		case adt.Stack:
			in, out = adt.PushInput(trace.Value(tag)), adt.WriteOutput()
			if i%2 == 1 {
				in, out = adt.Tag(adt.PopInput(), tag), adt.ReadOutput(trace.Value("q"+strconv.Itoa(i-1)))
			}
		case adt.Queue:
			in, out = adt.EnqInput(trace.Value(tag)), adt.WriteOutput()
			switch {
			case i == 6:
				in = adt.Tag(adt.EnqInput("x"), tag)
			case i%2 == 1 && i < 6:
				in, out = adt.Tag(adt.DeqInput(), tag), adt.ReadOutput(trace.Value("q"+strconv.Itoa(i-1)))
			}
		default:
			return nil
		}
		tr = append(tr, trace.Invoke("q", 1, in), trace.Response("q", 1, in, out))
	}
	return tr
}

// repeatPrefix is a quiescent prefix of folder f made of fastFuzzADT's
// own inputs and values, long enough that a witness-off session cuts at
// its end, so the fuzz trace repeats them across the cut: the register
// wrote z and read it untagged, then x and y overlapped (initial values
// {x, y}); consensus proposed a and b untagged and decided a; the mutex
// ran its four pool inputs; the stack pushed and popped x and keeps y
// (eighteen actions: the cut waits for the last response); the queue
// enqueued and dequeued x untagged and keeps y and r7.
func repeatPrefix(f adt.Folder) trace.Trace {
	var tr trace.Trace
	op := func(c trace.ClientID, in, out trace.Value) {
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, out))
	}
	ok := adt.WriteOutput()
	tag := func(in trace.Value, i int) trace.Value { return adt.Tag(in, "r"+strconv.Itoa(i)) }
	switch f.(type) {
	case adt.Register:
		op("q", adt.WriteInput("z"), ok)
		op("q", adt.ReadInput(), adt.ReadOutput("z"))
		for i := 0; i < 4; i++ {
			op("q", tag(adt.ReadInput(), i), adt.ReadOutput("z"))
		}
		tr = append(tr, trace.Invoke("q", 1, adt.WriteInput("x")), trace.Invoke("p", 1, adt.WriteInput("y")),
			trace.Response("q", 1, adt.WriteInput("x"), ok), trace.Response("p", 1, adt.WriteInput("y"), ok))
	case adt.Consensus:
		op("q", adt.ProposeInput("a"), adt.DecideOutput("a"))
		op("q", adt.ProposeInput("b"), adt.DecideOutput("a"))
		for i := 0; i < 6; i++ {
			op("q", tag(adt.ProposeInput("b"), i), adt.DecideOutput("a"))
		}
	case adt.Mutex:
		for i := 1; i <= 4; i++ {
			id := strconv.Itoa(i)
			if i > 2 {
				id = "r" + id
			}
			op("q", adt.Tag(adt.LockInput(), id), ok)
			op("q", adt.Tag(adt.UnlockInput(), id), ok)
		}
	case adt.Stack:
		op("q", adt.PushInput("x"), ok)
		op("q", adt.Tag(adt.PopInput(), "1"), adt.ReadOutput("x"))
		for i := 2; i < 6; i += 2 {
			op("q", adt.PushInput(trace.Value("r"+strconv.Itoa(i))), ok)
			op("q", tag(adt.PopInput(), i+1), adt.ReadOutput(trace.Value("r"+strconv.Itoa(i))))
		}
		tr = append(tr, trace.Invoke("q", 1, adt.PushInput("y")))
		op("p", adt.PushInput("r7"), ok)
		op("p", adt.Tag(adt.PopInput(), "2"), adt.ReadOutput("r7"))
		tr = append(tr, trace.Response("q", 1, adt.PushInput("y"), ok))
	case adt.Queue:
		op("q", adt.EnqInput("x"), ok)
		op("q", adt.DeqInput(), adt.ReadOutput("x"))
		for i := 2; i < 6; i += 2 {
			op("q", adt.EnqInput(trace.Value("r"+strconv.Itoa(i))), ok)
			op("q", tag(adt.DeqInput(), i+1), adt.ReadOutput(trace.Value("r"+strconv.Itoa(i))))
		}
		op("q", tag(adt.EnqInput("y"), 6), ok)
		op("q", adt.EnqInput("r7"), ok)
	default:
		return nil
	}
	return tr
}

// fastFuzzADT is fuzzADT with the fast-path containers in place of the
// counter (the counter has no fast path): the selector keeps fuzzADT's
// consensus/register slots and adds queue, mutex and stack pools with
// enough tagged variants to reach the distinct-inputs fragments.
func fastFuzzADT(sel uint8) (adt.Folder, []trace.Value, []trace.Value) {
	switch sel % 5 {
	case 2:
		return adt.Queue{},
			[]trace.Value{adt.EnqInput("x"), adt.EnqInput("y"), adt.DeqInput()},
			[]trace.Value{adt.WriteOutput(), adt.ReadOutput(adt.Bottom), adt.ReadOutput("x"), adt.ReadOutput("y")}
	case 3:
		return adt.Mutex{},
			[]trace.Value{adt.Tag(adt.LockInput(), "1"), adt.Tag(adt.UnlockInput(), "1"),
				adt.Tag(adt.LockInput(), "2"), adt.Tag(adt.UnlockInput(), "2")},
			[]trace.Value{adt.WriteOutput(), adt.WriteOutput(), adt.ErrOutput("held"), adt.ErrOutput("free")}
	case 4:
		return adt.Stack{},
			[]trace.Value{adt.PushInput("x"), adt.PushInput("y"),
				adt.Tag(adt.PopInput(), "1"), adt.Tag(adt.PopInput(), "2")},
			[]trace.Value{adt.WriteOutput(), adt.ReadOutput(adt.Bottom), adt.ReadOutput("x"), adt.ReadOutput("y")}
	}
	return fuzzADT(sel)
}

// completeTrace responds every pending invocation of tr (in a
// deterministic client order) with outputs cycled from the pool, so
// fuzz inputs reach the queue core's complete-trace fragment.
func completeTrace(tr trace.Trace, outputs []trace.Value) trace.Trace {
	pending := map[trace.ClientID]trace.Value{}
	var order []trace.ClientID
	for _, a := range tr {
		switch a.Kind {
		case trace.Inv:
			if _, busy := pending[a.Client]; !busy {
				pending[a.Client] = a.Input
				order = append(order, a.Client)
			}
		case trace.Res:
			delete(pending, a.Client)
		}
	}
	out := append(trace.Trace(nil), tr...)
	i := 0
	for _, c := range order {
		if in, busy := pending[c]; busy {
			out = append(out, trace.Response(c, 1, in, outputs[i%len(outputs)]))
			i++
		}
	}
	return out
}
