package capture

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/trace"
)

// drainBySort is the merge the recorder used before the k-way merge
// replaced it, kept as the test-local oracle: collect every undrained
// event below limit, sort the batch with the comparator (T, Inv before
// Res, proc). It reads the buffers without consuming them — the procs'
// drain cursors are put back — so the same recorder can then be drained
// for real and compared.
func drainBySort(r *Recorder, limit int64) trace.Trace {
	type tagged struct {
		ev   Event
		proc int
	}
	var batch []tagged
	for _, p := range r.procs {
		head, headN, drained := p.head, p.headN, p.drained
		avail := p.published.Load()
		for p.drained < avail {
			if p.headN == chunkSize {
				p.head = p.head.next.Load()
				p.headN = 0
			}
			ev := p.head.ev[p.headN]
			if ev.T >= limit {
				break
			}
			batch = append(batch, tagged{ev: ev, proc: p.id})
			p.headN++
			p.drained++
		}
		p.head, p.headN, p.drained = head, headN, drained
	}
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.ev.T != b.ev.T {
			return a.ev.T < b.ev.T
		}
		if a.ev.Kind != b.ev.Kind {
			return a.ev.Kind == trace.Inv
		}
		return a.proc < b.proc
	})
	var dst trace.Trace
	for _, e := range batch {
		c := r.procs[e.proc].client
		if e.ev.Kind == trace.Inv {
			dst = append(dst, trace.Invoke(c, 1, e.ev.In))
		} else {
			dst = append(dst, trace.Response(c, 1, e.ev.In, e.ev.Out))
		}
	}
	return dst
}

// drainChecked is rec.Drain(limit, dst) held action for action to the
// sort oracle.
func drainChecked(t *testing.T, rec *Recorder, limit int64, dst trace.Trace) trace.Trace {
	t.Helper()
	want := drainBySort(rec, limit)
	start := len(dst)
	dst = rec.Drain(limit, dst)
	got := dst[start:]
	if len(got) != len(want) {
		t.Fatalf("drain below %d: merge yields %d actions, sort %d", limit, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain below %d, action %d: merge %+v, sort %+v", limit, i, got[i], want[i])
		}
	}
	return dst
}

// fakeClock is a deterministic injectable clock for recorder tests. It
// honors the WithClock contract — the clock advances under repeated
// polling — by ticking once after eight consecutive reads of the same
// value, modelling a coarse clock whose granule spans several
// operations but that always eventually moves. Tests that pin exact
// timestamps (merge order, watermarks) read it only a few times per
// assigned value, below the auto-advance threshold.
type fakeClock struct {
	now   int64
	seen  int64
	stall int
}

func (c *fakeClock) fn() func() int64 {
	return func() int64 {
		if c.now == c.seen {
			if c.stall++; c.stall >= 8 {
				c.now++
				c.stall = 0
			}
		} else {
			c.stall = 0
		}
		c.seen = c.now
		return c.now
	}
}

// TestMergeOrder pins the merge comparator: timestamps first, then Inv
// before Res on ties, then proc id.
func TestMergeOrder(t *testing.T) {
	clk := &fakeClock{}
	rec := NewRecorder(2, WithClock(clk.fn()))
	p0, p1 := rec.Proc(0), rec.Proc(1)

	clk.now = 10
	p0.Inv("w:a")
	clk.now = 20
	p1.Inv("r:")
	clk.now = 30
	p0.Res("w:a", "ok:")
	clk.now = 30 // tie with p0's response: the invocation must sort first
	p1.Inv("w:b")
	clk.now = 40
	p1.Res("w:b", "ok:")
	p0.Close()
	p1.Close()

	got := drainChecked(t, rec, math.MaxInt64, nil)
	// p1's second action ("w:b" inv at t=30) ties with p0's response at
	// t=30; Inv sorts first. p1's pending "r:" never responds.
	want := trace.Trace{
		trace.Invoke("g0", 1, "w:a"),
		trace.Invoke("g1", 1, "r:"),
		trace.Invoke("g1", 1, "w:b"),
		trace.Response("g0", 1, "w:a", "ok:"),
		trace.Response("g1", 1, "w:b", "ok:"),
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d actions, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("action %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPerProcCoarseClock: a coarse clock (its granule spans several
// operations) still yields strictly increasing per-proc timestamps —
// responses are bumped past collisions, invocations poll the clock
// forward — so program order survives the merge.
func TestPerProcCoarseClock(t *testing.T) {
	clk := &fakeClock{now: 5}
	rec := NewRecorder(1, WithClock(clk.fn()))
	p := rec.Proc(0)
	for i := 0; i < 10; i++ {
		p.Inv(trace.Value("r:" + string(rune('a'+i))))
		p.Res(trace.Value("r:"+string(rune('a'+i))), "v:⊥")
	}
	p.Close()
	got := rec.Drain(math.MaxInt64, nil)
	if len(got) != 20 {
		t.Fatalf("drained %d actions, want 20", len(got))
	}
	for i := 0; i < 20; i += 2 {
		if got[i].Kind != trace.Inv || got[i+1].Kind != trace.Res || got[i].Input != got[i+1].Input {
			t.Fatalf("program order lost at %d: %+v %+v", i, got[i], got[i+1])
		}
	}
}

// TestGateWatermark pins the gate protocol: a proc that has not
// advanced its gate holds back the watermark, and only events strictly
// below the watermark drain.
func TestGateWatermark(t *testing.T) {
	clk := &fakeClock{}
	rec := NewRecorder(2, WithClock(clk.fn()))
	p0, p1 := rec.Proc(0), rec.Proc(1)

	clk.now = 100
	p0.Inv("w:a")
	if w := rec.Watermark(); w != 0 {
		t.Fatalf("watermark %d with p1 silent, want 0", w)
	}
	if got := rec.Drain(rec.Watermark(), nil); len(got) != 0 {
		t.Fatalf("drained %d actions below watermark 0", len(got))
	}

	clk.now = 50
	p1.Inv("r:")
	if w := rec.Watermark(); w != 50 {
		t.Fatalf("watermark %d, want 50", w)
	}
	// Only events with T < 50 are safe: none (p0's is at 100, p1's at 50).
	if got := rec.Drain(rec.Watermark(), nil); len(got) != 0 {
		t.Fatalf("drained %d actions below watermark 50", len(got))
	}

	clk.now = 200
	p1.Res("r:", "v:⊥")
	if w := rec.Watermark(); w != 100 {
		t.Fatalf("watermark %d, want min(gates)=100", w)
	}
	got := rec.Drain(rec.Watermark(), nil)
	if len(got) != 1 || got[0] != trace.Invoke("g1", 1, "r:") {
		t.Fatalf("drain below 100: got %v, want just g1's invocation at t=50", got)
	}

	p0.Close()
	p1.Close()
	rest := rec.Drain(math.MaxInt64, nil)
	if len(rest) != 2 {
		t.Fatalf("final drain: got %d actions, want the remaining 2", len(rest))
	}
}

// TestIncrementalDrainsEqualFullDrain is the drain-protocol property
// test: any sequence of intermediate watermark drains concatenates to
// exactly the one-shot full merge.
func TestIncrementalDrainsEqualFullDrain(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		procs := 1 + r.Intn(4)
		steps := 1 + r.Intn(60)

		run := func(drainEvery int) trace.Trace {
			clk := &fakeClock{}
			rec := NewRecorder(procs, WithClock(clk.fn()))
			rr := rand.New(rand.NewSource(int64(iter)))
			pending := make([]trace.Value, procs)
			var out trace.Trace
			seq := 0
			for s := 0; s < steps; s++ {
				clk.now += int64(rr.Intn(3)) // frequent cross-proc ties
				p := rr.Intn(procs)
				if pending[p] == "" {
					seq++
					in := adt.Tag(adt.ReadInput(), itoa(seq))
					rec.Proc(p).Inv(in)
					pending[p] = in
				} else {
					rec.Proc(p).Res(pending[p], adt.ReadOutput(adt.Bottom))
					pending[p] = ""
				}
				if drainEvery > 0 && s%drainEvery == 0 {
					out = drainChecked(t, rec, rec.Watermark(), out)
				}
			}
			for p := 0; p < procs; p++ {
				rec.Proc(p).Close()
			}
			return drainChecked(t, rec, math.MaxInt64, out)
		}

		full := run(0)
		inc := run(1 + r.Intn(5))
		if len(full) != len(inc) {
			t.Fatalf("iter %d: incremental drain lost actions: %d vs %d", iter, len(inc), len(full))
		}
		for i := range full {
			if full[i] != inc[i] {
				t.Fatalf("iter %d action %d: incremental %+v vs full %+v", iter, i, inc[i], full[i])
			}
		}
	}
}

// TestMergeEqualsSort is the merge differential at scale: 1–8 procs
// record 0–3 000 events each (several chunks) under a clock that ties
// across procs most of the time, drained at random limits — watermarks
// and arbitrary timestamps, so a drain stops mid-chunk, exactly on a
// chunk boundary, or finds nothing — and every drain equals the sort.
func TestMergeEqualsSort(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 40; iter++ {
		procs := 1 + r.Intn(8)
		clk := &fakeClock{}
		rec := NewRecorder(procs, WithClock(clk.fn()))
		left := make([]int, procs) // events each proc still records
		total := 0
		for p := range left {
			left[p] = r.Intn(3001)
			if r.Intn(4) == 0 {
				left[p] = chunkSize * r.Intn(3) // empty, or whole chunks exactly
			}
			total += left[p]
		}
		pending := make([]trace.Value, procs)
		var out trace.Trace
		for seq := 0; total > 0; seq++ {
			clk.now += int64(r.Intn(2))
			p := r.Intn(procs)
			for left[p] == 0 {
				p = (p + 1) % procs
			}
			if pending[p] == "" {
				pending[p] = adt.Tag(adt.ReadInput(), itoa(seq))
				rec.Proc(p).Inv(pending[p])
			} else {
				rec.Proc(p).Res(pending[p], adt.ReadOutput(adt.Bottom))
				pending[p] = ""
			}
			left[p]--
			total--
			if left[p] == 0 && r.Intn(2) == 0 {
				rec.Proc(p).Close() // a closed proc among live ones
			}
			switch r.Intn(400) {
			case 0:
				out = drainChecked(t, rec, rec.Watermark(), out)
			case 1:
				out = drainChecked(t, rec, clk.now-int64(r.Intn(50)), out)
			}
		}
		for p := 0; p < procs; p++ {
			rec.Proc(p).Close()
		}
		out = drainChecked(t, rec, math.MaxInt64, out)
		if n := len(drainChecked(t, rec, math.MaxInt64, nil)); n != 0 {
			t.Fatalf("iter %d: %d actions drained twice", iter, n)
		}
		assertWellFormed(t, out)
	}
}

// TestMergeAtChunkBoundary: a proc that has published exactly chunkSize
// events has filled its chunk and linked no next one. The merge must
// stop there — not hop to a chunk that does not exist — and pick up in
// the new chunk once the proc records again.
func TestMergeAtChunkBoundary(t *testing.T) {
	clk := &fakeClock{}
	rec := NewRecorder(3, WithClock(clk.fn())) // proc 2 stays empty
	full, other := rec.Proc(0), rec.Proc(1)
	for i := 0; i < chunkSize/2; i++ {
		clk.now++
		in := adt.Tag(adt.ReadInput(), itoa(i))
		full.Inv(in)
		clk.now++
		full.Res(in, adt.ReadOutput(adt.Bottom))
	}
	clk.now++
	other.Inv("w:a")
	rec.Proc(2).Close()
	// The watermark is proc 0's gate, its last event's timestamp: all
	// but that event drain, and the cursor stops one short of the end.
	out := drainChecked(t, rec, rec.Watermark(), nil)
	if len(out) != chunkSize-1 {
		t.Fatalf("drained %d actions below the watermark, want %d", len(out), chunkSize-1)
	}
	// A limit above every timestamp takes the last event and proc 1's
	// invocation; the cursor now sits past the chunk with no next one.
	if out = drainChecked(t, rec, clk.now+1, out); len(out) != chunkSize+1 {
		t.Fatalf("drained %d actions, want %d", len(out), chunkSize+1)
	}
	if out = drainChecked(t, rec, math.MaxInt64-1, out); len(out) != chunkSize+1 {
		t.Fatalf("a drain with nothing published drained %d actions", len(out)-chunkSize-1)
	}
	clk.now++
	full.Inv("r:")
	clk.now++
	full.Res("r:", adt.ReadOutput(adt.Bottom))
	full.Close()
	other.Close()
	if out = drainChecked(t, rec, math.MaxInt64, out); len(out) != chunkSize+3 {
		t.Fatalf("drained %d actions in all, want %d", len(out), chunkSize+3)
	}
	assertWellFormed(t, out[:len(out)-2]) // proc 1's write never responds
}

// TestMergeEqualsSortLive is the differential under real concurrency:
// goroutines record through the real clock while the drainer takes a
// watermark, asks the oracle and then the merge for everything below it
// and compares. The gate protocol fixes that set before either reads
// it, so they must agree whatever the producers do meanwhile. Run under
// -race this is what vets the merge reading published and the chunk
// links next to the producers.
func TestMergeEqualsSortLive(t *testing.T) {
	const procs, ops = 4, 3000
	rec := NewRecorder(procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer p.Close()
			for n := 0; n < ops; n++ {
				in := adt.Tag(adt.ReadInput(), string(p.Client())+"-"+itoa(n))
				p.Inv(in)
				p.Res(in, adt.ReadOutput(adt.Bottom))
			}
		}(rec.Proc(i))
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	var out trace.Trace
	for running := true; running; {
		select {
		case <-finished:
			running = false
		default:
		}
		limit := rec.Watermark()
		if !running {
			limit = math.MaxInt64
		}
		out = drainChecked(t, rec, limit, out)
	}
	if len(out) != 2*procs*ops {
		t.Fatalf("drained %d actions, want %d", len(out), 2*procs*ops)
	}
	assertWellFormed(t, out)
}

// TestTieBurstNeverManufacturesPrecedence is the adversarial
// equal-timestamp audit: under a clock that is stuck for long bursts
// (many operations per granule, so cross-proc collisions are the common
// case), the merged order must never claim a real-time precedence the
// execution did not have. All procs are driven from one goroutine, so
// the genuine order of record calls is known exactly; the test then
// checks every merged response→invocation pair against it. The recorder
// used to bump colliding *invocations* past the proc's previous
// timestamp, which pushed them beyond other procs' genuine responses in
// the same clock granule and manufactured precedences — this test fails
// on that code.
func TestTieBurstNeverManufacturesPrecedence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		procs := 2 + r.Intn(3)
		clk := &fakeClock{}
		rec := NewRecorder(procs, WithClock(clk.fn()))

		pending := make([]trace.Value, procs)
		nextOp := 0
		callSeq := 0
		invCall := map[trace.Value]int{} // input → real order of its Inv call
		resCall := map[trace.Value]int{} // input → real order of its Res call
		for s := 0; s < 200; s++ {
			if r.Intn(10) == 0 {
				clk.now += 1 + int64(r.Intn(3)) // rare genuine ticks
			}
			p := r.Intn(procs)
			callSeq++
			if pending[p] == "" {
				nextOp++
				in := adt.Tag(adt.ReadInput(), itoa(nextOp))
				rec.Proc(p).Inv(in)
				pending[p] = in
				invCall[in] = callSeq
			} else {
				rec.Proc(p).Res(pending[p], adt.ReadOutput(adt.Bottom))
				resCall[pending[p]] = callSeq
				pending[p] = ""
			}
		}
		for p := 0; p < procs; p++ {
			rec.Proc(p).Close()
		}
		tr := drainChecked(t, rec, math.MaxInt64, nil)

		// Merged positions, keyed by the per-op unique input.
		mergedInv := map[trace.Value]int{}
		mergedRes := map[trace.Value]int{}
		for i, a := range tr {
			if a.Kind == trace.Inv {
				mergedInv[a.Input] = i
			} else {
				mergedRes[a.Input] = i
			}
		}
		// Merged precedence A→B (A's response before B's invocation)
		// must imply the Res call really happened before the Inv call.
		for opA, ri := range mergedRes {
			for opB, ij := range mergedInv {
				if opA == opB || ri >= ij {
					continue
				}
				if resCall[opA] >= invCall[opB] {
					t.Fatalf("iter %d: merge claims %q precedes %q (res@%d < inv@%d) but the invocation was recorded first (calls %d vs %d)",
						iter, opA, opB, ri, ij, resCall[opA], invCall[opB])
				}
			}
		}
	}
}

// TestDrainWellFormed: concurrent recording through real goroutines and
// the real clock merges into a well-formed trace (per-client Inv/Res
// alternation with matching inputs).
func TestDrainWellFormed(t *testing.T) {
	rep, err := Run(t.Context(), Config{Structure: StructMap, Goroutines: 8, Ops: 200, Keys: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Actions == 0 {
		t.Fatal("no actions captured")
	}
	if rep.Actions != int64(8*200*2) {
		t.Fatalf("captured %d actions, want %d", rep.Actions, 8*200*2)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
