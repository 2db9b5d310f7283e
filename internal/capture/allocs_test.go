package capture

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	speclin "repro"
	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/keyed"
	"repro/internal/lin"
	"repro/internal/trace"
)

// The drain path's cost in bytes and retained traces, held without a
// wall clock (DESIGN.md, decision 23): allocation counts and sizes do
// not depend on the machine or its load.

// drainFixedBytes and drainBytesPerAction bound what the merged actions
// allocate on their way from the proc buffers through the keyed
// histories into register fast-path sessions, as a fixed cost plus a
// cost per action, both read off two runs of different lengths. These
// sequential histories cut at every filled log chunk (decision 26) and
// the core restarts at every cut (decision 35), so its tables, blocks
// and closed arrays hold one stretch and are reused: the fixed part is
// the sessions, tables and log chunks sized once, measured at 9.1 KB
// since the router hands each response its operation's handle (decision
// 37; 9.9 KB while the sessions paired them by client), with 10.5 KB
// plus 25% as the budget, and the part per action is measured at 0 (±0.001 B): the
// log's first chunk is 16 actions and each cut reuses it, so a single
// 8-byte allocation per cut would read 0.5 B per action. The
// cost per action was 68 B while the cores kept two digest-table slots
// an input, a third a written value and a block summary a write for the
// whole history, 142 B while the log kept every action (80 bytes each),
// ~180 B while the cores kept string-keyed maps and witness material
// nobody asked for, and ~1 700 B when Drain built a tagged batch, the
// router kept every trace and the log was one doubling slice. Moving
// either up needs a reason that is written down.
const (
	drainFixedBytes     = 12_800
	drainBytesPerAction = 0.01
)

// recordRegisterPairs records pairs operations per proc on a recorder of
// two procs, alternating between them so the merge has work to do: each
// proc writes and reads its own key, so the two per-key histories are
// sequential and stay inside the register fragment.
func recordRegisterPairs(pairs int) (*Recorder, int) {
	rec := NewRecorder(2)
	type op struct{ in, out trace.Value }
	ops := make([][]op, 2)
	for p := range ops {
		key, cur := "k"+strconv.Itoa(p), adt.ReadOutput(adt.Bottom)
		for i := 0; i < pairs; i++ {
			u := key + "-" + strconv.Itoa(i)
			if i%3 == 0 {
				ops[p] = append(ops[p], op{mapWriteInput(key, u), adt.WriteOutput()})
				cur = adt.ReadOutput(trace.Value(u))
			} else {
				ops[p] = append(ops[p], op{mapReadInput(key, u), cur})
			}
		}
	}
	for i := 0; i < pairs; i++ {
		rec.Proc(0).Inv(ops[0][i].in)
		rec.Proc(1).Inv(ops[1][i].in)
		rec.Proc(0).Res(ops[0][i].in, ops[0][i].out)
		rec.Proc(1).Res(ops[1][i].in, ops[1][i].out)
	}
	rec.Proc(0).Close()
	rec.Proc(1).Close()
	return rec, 4 * pairs
}

// allocated returns what the window build returns allocates, in objects
// and bytes, read with the collector idle — a cycle is finished before
// the window opens and none starts inside it — and with no OS thread
// started inside it: the runtime allocates a thread's m and g0 on the
// heap, 5 248 B on the 2-core box, which a window read in about 1 of 30
// isolated runs and in nearly every third one beside a second copy of
// the test. A window that started a thread is built and run again, up to
// five times.
func allocated(build func() (window func())) (objects, bytes uint64) {
	threads := pprof.Lookup("threadcreate")
	for try := 1; ; try++ {
		window := build()
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		started := threads.Count()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		window()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if threads.Count() == started || try == 5 {
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
	}
}

func TestDrainAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const pairs = 25_000 // per proc: 50 000 pairs, 100 000 actions

	// The merge alone allocates nothing per action.
	var merged, actions int
	objects, _ := allocated(func() func() {
		var rec *Recorder
		rec, actions = recordRegisterPairs(pairs)
		merged = 0
		return func() { rec.each(math.MaxInt64, func(*Proc, *Event) { merged++ }) }
	})
	if merged != actions {
		t.Fatalf("merged %d of %d actions", merged, actions)
	}
	mallocs := float64(objects) / float64(actions)
	t.Logf("merge: %.4f allocations per action", mallocs)
	if mallocs > 0.01 {
		t.Fatalf("the merge makes %.4f allocations per action, want ≤ 0.01", mallocs)
	}

	// Merge, route and feed, at 100 000 and at 400 000 actions: the bytes
	// the longer run allocates beyond the shorter one are the per-action
	// cost, what is left of the shorter one the fixed cost.
	var runs [2]struct{ actions, bytes float64 }
	for i, n := range []int{pairs, 4 * pairs} {
		var set *keyed.Set
		_, bytes := allocated(func() func() {
			var rec *Recorder
			rec, actions = recordRegisterPairs(n)
			set = keyed.New(keyed.Policy{Sessions: true}, func(bool) *lin.Session {
				return lin.NewSession(context.Background(), adt.Register{}, check.WithWitness(false))
			})
			return func() { rec.each(math.MaxInt64, router{set, mapKeyOf}.emit) }
		})
		rep := routeReport(set.Report())
		if rep.Verdict != speclin.Linearizable || rep.Actions != int64(actions) || rep.Nodes != rep.Actions {
			t.Fatalf("routed %d of %d actions in %d nodes, verdict %v (%s): the stream left the fast path",
				rep.Actions, actions, rep.Nodes, rep.Verdict, rep.Reason)
		}
		runs[i].actions, runs[i].bytes = float64(actions), float64(bytes)
		t.Logf("merge + route + feed: %.0f B over %d actions", runs[i].bytes, actions)
	}
	perAction := (runs[1].bytes - runs[0].bytes) / (runs[1].actions - runs[0].actions)
	fixed := runs[0].bytes - perAction*runs[0].actions
	t.Logf("%.0f B fixed (budget %d) plus %.4f B per action (budget %.2f)", fixed, drainFixedBytes, perAction, drainBytesPerAction)
	if fixed > drainFixedBytes || perAction > drainBytesPerAction {
		t.Fatalf("%.0f B fixed plus %.4f B per action allocated, budget is %d B plus %.2f B",
			fixed, perAction, drainFixedBytes, drainBytesPerAction)
	}
}

// queueByteBudget is what the queue's one-shot check may allocate per
// operation of a complete history, witnesses off: set at 87 B plus 25%
// when the check was a two-pass analysis of the trace, and measured at
// 63 B since the streaming core runs it (DESIGN.md, decision 33) —
// digest-table slots for every dequeue input and enqueued value and the
// value index, with their doublings. It was 151 B while each operation's
// summary copied its input, output and value (80 bytes).
const queueByteBudget = 109

// TestQueueOneShotByteBudget: the bytes the queue's one-shot check
// allocates per operation on a 100 000-operation history shaped like a
// hunt's — a prefill, then one enqueuer and one dequeuer overlapping.
func TestQueueOneShotByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ops = 100_000
	var tr trace.Trace
	var fifo []trace.Value
	enq := func(i int) trace.Value {
		u := trace.Value("u" + strconv.Itoa(i))
		fifo = append(fifo, u)
		return adt.EnqInput(u)
	}
	for i := 0; i < 4; i++ {
		in := enq(i)
		tr = append(tr, trace.Invoke("c0", 1, in), trace.Response("c0", 1, in, adt.WriteOutput()))
	}
	for i := 4; len(tr) < 2*ops; i += 2 {
		e, d := enq(i), adt.Tag(adt.DeqInput(), strconv.Itoa(i+1))
		head := fifo[0]
		fifo = fifo[1:]
		tr = append(tr, trace.Invoke("c0", 1, e), trace.Invoke("c1", 1, d),
			trace.Response("c0", 1, e, adt.WriteOutput()), trace.Response("c1", 1, d, adt.ReadOutput(head)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := speclin.Check(context.Background(), speclin.CheckSpec{Folder: speclin.QueueADT, Mode: speclin.Lin}, tr,
		speclin.WithWitness(false))
	runtime.ReadMemStats(&after)
	if err != nil || rep.Verdict != speclin.Linearizable || rep.Nodes != len(tr) {
		t.Fatalf("verdict %v in %d nodes for %d actions (%v): the history left the fast path", rep.Verdict, rep.Nodes, len(tr), err)
	}
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr)/2)
	t.Logf("queue one-shot: %.0f B per operation (budget %d)", bytes, queueByteBudget)
	if bytes > queueByteBudget {
		t.Fatalf("%.0f B allocated per operation, budget is %d", bytes, queueByteBudget)
	}
}

// TestHuntRetainsOnlyWhatItReads: the keyed histories count every action
// but keep a key's trace only for the ClassicalLin pass, the one pass
// that reads it — the queue, like the map and the mutex, is checked
// live.
func TestHuntRetainsOnlyWhatItReads(t *testing.T) {
	const g, ops = 4, 500
	for _, tc := range []struct {
		structure string
		classical bool
		duration  time.Duration
		actions   int64 // 0: bounded by wall clock, whatever the run records
		retained  bool
	}{
		{StructMap, false, 0, 2 * g * ops, false},
		{StructMutex, false, 0, 4 * g * ops, false},
		{StructMap, true, 0, 2 * g * ops, true},
		{StructQueue, false, 0, 2*g*ops + 4*g, false}, // prefill: 2 enqueues per goroutine
		{StructMutex, true, 0, 4 * g * ops, true},
		{StructQueue, false, 20 * time.Millisecond, 0, false},
		{StructQueue, true, 0, 2*g*ops + 4*g, true},
	} {
		cfg := Config{Structure: tc.structure, Goroutines: g, Ops: ops, Keys: 4, Classical: tc.classical, Duration: tc.duration}
		rep, set, err := hunt(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Live.Verdict != speclin.Linearizable {
			t.Fatalf("%s: verdict %v: %s", tc.structure, rep.Live.Verdict, rep.Live.Reason)
		}
		if tc.actions != 0 && rep.Actions != tc.actions {
			t.Fatalf("%s: %d actions reported, want %d", tc.structure, rep.Actions, tc.actions)
		}
		if rep.Live.Nodes != rep.Actions {
			t.Fatalf("%s: %d nodes for %d actions: a session left the fast path", tc.structure, rep.Live.Nodes, rep.Actions)
		}
		var kept int64
		set.Traces(func(key string, _ bool, tr trace.Trace) {
			kept += int64(len(tr))
			if !tc.retained {
				t.Fatalf("%s: key %q keeps a %d-action trace no pass reads", tc.structure, key, len(tr))
			}
		})
		if counted := set.Report().Actions; counted != rep.Actions || tc.retained && kept != rep.Actions {
			t.Fatalf("%s (classical %v): %d actions counted, %d kept, %d reported",
				tc.structure, tc.classical, counted, kept, rep.Actions)
		}
		if !tc.classical {
			continue
		}
		if rep.Classical == nil || rep.Classical.Actions != rep.Actions {
			t.Fatalf("%s: classical pass %+v, want %d actions", tc.structure, rep.Classical, rep.Actions)
		}
		// Captured inputs are unique, so by Theorem 1 the classical pass
		// may run out of budget but never refute a linearizable history.
		switch rep.Classical.Verdict {
		case speclin.NotLinearizable:
			t.Fatalf("%s: classical pass refutes a history the live check accepted: %s", tc.structure, rep.Classical.Reason)
		case speclin.Unknown:
			t.Logf("%s: classical pass unknown after %d nodes: %s", tc.structure, rep.Classical.Nodes, rep.Classical.Reason)
		}
	}
}
