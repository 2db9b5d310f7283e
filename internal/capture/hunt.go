// The hunt: stress one structure under test with concurrent recording
// goroutines, drain the capture buffers live into checker sessions, and
// report the verdict (plus optional ClassicalLin one-shots and the
// capture-overhead measurement). cmd/lin-hunt and the nightly hunt job
// drive this; mutants are expected to come back NotLinearizable.
package capture

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/keyed"
	"repro/internal/lin"
	"repro/internal/trace"
)

// Config parameterizes one hunt run.
type Config struct {
	// Structure is one of Structures; Mutant is "" (unmutated) or the
	// structure's entry in Mutants.
	Structure string
	Mutant    string
	// Goroutines is the recording worker count (default 4×GOMAXPROCS,
	// the acceptance floor for clean runs).
	Goroutines int
	// Ops bounds each worker's operation count (mutex workers count a
	// lock/unlock pair as one). Ignored when Duration is set.
	Ops int
	// Duration, when positive, bounds the run by wall clock instead.
	Duration time.Duration
	// Seed derives the per-worker RNGs (worker i uses Seed + i·7919).
	Seed int64
	// Keys sizes the key space of the map and set workloads.
	Keys int
	// Budget bounds the search nodes each fed action of a checker session
	// or one-shot check may spend (DESIGN.md, decision 34); Classical's
	// pass spends it over each whole history.
	Budget int
	// Exact forces the exact engines (check.WithExact) on the sessions.
	Exact bool
	// Classical additionally runs the uncapped ClassicalLin checker
	// one-shot over every captured per-key history after the run.
	Classical bool
	// RetryEmpty bounds a queue worker's dequeue retry loop; an
	// exhausted loop records an empty dequeue (clean runs never do: a
	// dequeue is only attempted against a completed enqueue's token).
	RetryEmpty int

	clock func() int64 // test hook
}

func (c Config) withDefaults() Config {
	if c.Goroutines <= 0 {
		c.Goroutines = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Ops <= 0 {
		c.Ops = 1_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Keys <= 0 {
		c.Keys = 16
	}
	if c.Budget <= 0 {
		c.Budget = 5_000_000
	}
	if c.RetryEmpty <= 0 {
		c.RetryEmpty = 2_000
	}
	return c
}

// Report is one hunt run's outcome.
type Report struct {
	Structure  string
	Mutant     string
	Goroutines int
	// Actions is the merged trace length (2 per completed operation).
	Actions int64
	// EmptyDeqs counts queue dequeues that exhausted their retry loop.
	EmptyDeqs int64
	// Live is the streaming verdict: the per-key sessions the drainer
	// fed, one per key (the mutex and queue have one key), and its Wall
	// the drainer's time in them.
	Live RouteReport
	// ClassicalReport is the optional post-run ClassicalLin pass.
	Classical *RouteReport
	// Wall is the stress run's wall clock, drain and live checking
	// included, the classical pass excluded.
	Wall time.Duration
}

// huntState shares the structure under test and counters between the
// workers.
type huntState struct {
	cfg       Config
	sut       any
	scratch   atomic.Int64 // mutex critical-section work
	tokens    atomic.Int64 // queue: completed-enqueue claims
	emptyDeqs atomic.Int64
}

// Run stresses the configured structure and checks the captured trace
// live. The returned Report carries the verdict; err is reserved for
// configuration errors, not negative verdicts.
func Run(ctx context.Context, cfg Config) (Report, error) {
	rep, _, err := hunt(ctx, cfg)
	return rep, err
}

// hunt is Run, also handing back the keyed histories so in-package tests
// can see what the run retained.
func hunt(ctx context.Context, cfg Config) (Report, *keyed.Set, error) {
	cfg = cfg.withDefaults()
	sut, err := newStructure(cfg.Structure, cfg.Mutant, true)
	if err != nil {
		return Report{}, nil, err
	}
	h := &huntState{cfg: cfg, sut: sut}
	var recOpts []Option
	if cfg.clock != nil {
		recOpts = append(recOpts, WithClock(cfg.clock))
	}
	rec := NewRecorder(cfg.Goroutines, recOpts...)

	// The budget is per fed action (DESIGN.md, decision 34), so a session
	// living for the whole stress run never starves its late actions.
	opts := []check.Option{check.WithBudget(cfg.Budget), check.WithWitness(false),
		check.WithExact(cfg.Exact)}
	var f adt.Folder
	var keyOf func(trace.Value) string
	switch cfg.Structure {
	case StructMap:
		f, keyOf = adt.Register{}, mapKeyOf
	case StructMutex:
		f = adt.Mutex{}
	case StructSet:
		// The set folder has no fast path, so its per-key sessions run the
		// exact frontier engine. Its configurations are keyed on the set's
		// state and the open operations already linearized (DESIGN.md,
		// decision 20), so a key's frontier is as wide as the goroutines
		// overlapping on it admit, however long the scheduler keeps one of
		// them off the CPU mid-operation: the set checks live like the map
		// and mutex do.
		f, keyOf = adt.Set{}, setKeyOf
	case StructQueue:
		f = adt.Queue{}
	}
	set := keyed.New(keyed.Policy{Sessions: true, Retain: cfg.Classical},
		func(bool) *lin.Session { return lin.NewSessionFast(ctx, f, opts...) })

	start := time.Now()
	if cfg.Structure == StructQueue {
		h.prefill(rec.Proc(0))
	}

	done := make(chan struct{})
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, func() { close(done) })
		defer timer.Stop()
	}
	set.Charge(rec.drainLive(h.start(rec, done), route(set, keyOf)))

	rep := Report{
		Structure:  cfg.Structure,
		Mutant:     cfg.Mutant,
		Goroutines: cfg.Goroutines,
		EmptyDeqs:  h.emptyDeqs.Load(),
	}
	rep.Live = routeReport(set.Report())
	rep.Actions = rep.Live.Actions
	rep.Wall = time.Since(start)
	if cfg.Classical {
		// Captured inputs are unique by construction, so Theorem 1 grounds
		// the classical verdicts.
		began := time.Now()
		cl := routeReport(set.Check(ctx, 1, func(t trace.Trace, _ bool) (lin.Result, error) {
			return lin.CheckClassical(ctx, f, t, opts...)
		}))
		cl.Wall += time.Since(began)
		rep.Classical = &cl
	}
	return rep, set, nil
}

// drainLive is the live drain loop: once a millisecond it merges
// everything below the watermark into emit, and when finished closes
// (every proc is closed by then) it merges the rest. It returns the time
// spent in those batches, one clock pair each.
func (r *Recorder) drainLive(finished <-chan struct{}, emit func(trace.Action)) (busy time.Duration) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-finished:
			running = false
		case <-tick.C:
		}
		limit := r.Watermark()
		if !running {
			limit = math.MaxInt64
		}
		t := time.Now()
		r.each(limit, emit)
		busy += time.Since(t)
	}
	return busy
}

// start runs every worker on its proc of rec and returns a channel closed
// once all of them have returned.
func (h *huntState) start(rec *Recorder, done <-chan struct{}) <-chan struct{} {
	var wg sync.WaitGroup
	for i := 0; i < h.cfg.Goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.worker(rec.Proc(i), i, done)
		}(i)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	return finished
}

// worker runs one recording goroutine's operation loop.
func (h *huntState) worker(p *Proc, i int, done <-chan struct{}) {
	defer p.Close()
	r := rand.New(rand.NewSource(h.cfg.Seed + int64(i)*7919))
	op := h.opFunc(p)
	for seq := 0; ; seq++ {
		if h.cfg.Duration > 0 {
			select {
			case <-done:
				return
			default:
			}
		} else if seq >= h.cfg.Ops {
			return
		}
		op(r, seq)
	}
}

// opFunc returns the per-operation closure for the configured
// structure, recording through p.
func (h *huntState) opFunc(p *Proc) func(r *rand.Rand, seq int) {
	client := string(p.Client())
	uniq := func(seq int) string { return client + "-" + strconv.Itoa(seq) }
	switch h.cfg.Structure {
	case StructMap:
		m := h.sut.(MapSUT)
		return func(r *rand.Rand, seq int) {
			key := "k" + strconv.Itoa(r.Intn(h.cfg.Keys))
			u := uniq(seq)
			if r.Intn(2) == 0 {
				in := mapWriteInput(key, u)
				p.Inv(in)
				m.Store(key, u)
				p.Res(in, adt.WriteOutput())
			} else {
				in := mapReadInput(key, u)
				p.Inv(in)
				v, ok := m.Load(key)
				out := adt.ReadOutput(adt.Bottom)
				if ok {
					out = adt.ReadOutput(trace.Value(v))
				}
				p.Res(in, out)
			}
		}
	case StructMutex:
		l := h.sut.(LockSUT)
		return func(r *rand.Rand, seq int) {
			u := uniq(seq)
			lk := adt.Tag(adt.LockInput(), u)
			p.Inv(lk)
			l.Lock()
			p.Res(lk, adt.WriteOutput())
			for k := 0; k < 8; k++ { // hold the lock across a little work
				h.scratch.Add(1)
			}
			// Yield while holding: legal on a correct mutex (the holder may
			// be delayed arbitrarily), and the overlap a broken one then
			// admits lands inside the captured critical section.
			runtime.Gosched()
			uin := adt.Tag(adt.UnlockInput(), u)
			p.Inv(uin)
			l.Unlock()
			p.Res(uin, adt.WriteOutput())
		}
	case StructSet:
		s := h.sut.(SetSUT)
		return func(r *rand.Rand, seq int) {
			v := r.Intn(h.cfg.Keys)
			vs := trace.Value(strconv.Itoa(v))
			var in trace.Value
			var out trace.Value
			switch r.Intn(4) {
			case 0:
				in = adt.Tag(adt.AddInput(vs), uniq(seq))
				p.Inv(in)
				out = adt.BoolOutput(s.Add(v))
			case 1:
				in = adt.Tag(adt.RemoveInput(vs), uniq(seq))
				p.Inv(in)
				out = adt.BoolOutput(s.Remove(v))
			default:
				in = adt.Tag(adt.HasInput(vs), uniq(seq))
				p.Inv(in)
				out = adt.BoolOutput(s.Contains(v))
			}
			p.Res(in, out)
		}
	case StructQueue:
		q := h.sut.(QueueSUT)
		return func(r *rand.Rand, seq int) {
			u := uniq(seq)
			// Enqueue-biased mix; dequeues only run against a token
			// deposited by a completed enqueue, so on a correct queue
			// every granted dequeue finds an element.
			deq := r.Intn(100) < 45
			if deq && h.tokens.Add(-1) < 0 {
				h.tokens.Add(1)
				deq = false
			}
			if !deq {
				in := adt.EnqInput(trace.Value(u))
				p.Inv(in)
				q.Enqueue(u)
				p.Res(in, adt.WriteOutput())
				h.tokens.Add(1)
				return
			}
			in := adt.Tag(adt.DeqInput(), u)
			p.Inv(in)
			out := adt.ReadOutput(adt.Bottom)
			for tries := 0; tries < h.cfg.RetryEmpty; tries++ {
				if v, ok := q.Dequeue(); ok {
					out = adt.ReadOutput(trace.Value(v))
					break
				}
				runtime.Gosched()
			}
			if out == adt.ReadOutput(adt.Bottom) {
				h.emptyDeqs.Add(1)
				h.tokens.Add(1) // hand the claim back
			}
			p.Res(in, out)
		}
	}
	panic("capture: unknown structure " + h.cfg.Structure)
}

// queuePrefill is how many elements per goroutine the queue holds
// before the workers start.
const queuePrefill = 2

// prefill seeds the queue with queuePrefill×Goroutines elements through
// proc 0 before the workers start, so the trace stays inside the
// no-empty-dequeue fast fragment from the first operation.
func (h *huntState) prefill(p *Proc) {
	q := h.sut.(QueueSUT)
	for i := 0; i < queuePrefill*h.cfg.Goroutines; i++ {
		u := "pre-" + strconv.Itoa(i)
		in := adt.EnqInput(trace.Value(u))
		p.Inv(in)
		q.Enqueue(u)
		p.Res(in, adt.WriteOutput())
		h.tokens.Add(1)
	}
}

// OverheadReport measures recording cost: the same worker loop run
// uninstrumented (no recording, no merge) and captured (recording plus
// a live drain, no checking).
type OverheadReport struct {
	Structure    string
	Goroutines   int
	RawOps       int64
	RawWall      time.Duration
	CapturedOps  int64
	CapturedWall time.Duration
}

// RawNsPerOp is the uninstrumented cost per operation.
func (o OverheadReport) RawNsPerOp() float64 {
	return float64(o.RawWall.Nanoseconds()) / float64(o.RawOps)
}

// CapturedNsPerOp is the recorded-and-merged cost per operation.
func (o OverheadReport) CapturedNsPerOp() float64 {
	return float64(o.CapturedWall.Nanoseconds()) / float64(o.CapturedOps)
}

// ThroughputRatio is captured ops/sec over raw ops/sec (≤ 1 when
// recording costs anything; higher is better).
func (o OverheadReport) ThroughputRatio() float64 {
	raw := float64(o.RawOps) / float64(o.RawWall.Nanoseconds())
	inst := float64(o.CapturedOps) / float64(o.CapturedWall.Nanoseconds())
	return inst / raw
}

// Overhead measures capture overhead on the unmutated structure:
// identical op loops, one muted (recording skipped at the source), one
// recording with a live drain that discards the merge.
func Overhead(cfg Config) (OverheadReport, error) {
	cfg.Duration = 0 // ops-bounded only: the op counts must match
	cfg = cfg.withDefaults()
	out := OverheadReport{Structure: cfg.Structure, Goroutines: cfg.Goroutines}
	for _, captured := range []bool{false, true} {
		// No perturbation: the measurement isolates recording cost, not
		// scheduler churn.
		sut, err := newStructure(cfg.Structure, cfg.Mutant, false)
		if err != nil {
			return OverheadReport{}, err
		}
		h := &huntState{cfg: cfg, sut: sut}
		rec := NewRecorder(cfg.Goroutines)
		if !captured {
			for i := 0; i < cfg.Goroutines; i++ {
				rec.Proc(i).mute = true
			}
		}
		if cfg.Structure == StructQueue {
			h.prefill(rec.Proc(0))
		}
		start := time.Now()
		finished := h.start(rec, nil)
		if captured {
			rec.drainLive(finished, func(trace.Action) {})
		} else {
			<-finished
		}
		wall := time.Since(start)
		ops := int64(cfg.Goroutines) * int64(cfg.Ops)
		if captured {
			out.CapturedOps, out.CapturedWall = ops, wall
		} else {
			out.RawOps, out.RawWall = ops, wall
		}
	}
	return out, nil
}

// String renders the report for the CLI.
func (r Report) String() string {
	mut := r.Mutant
	if mut == "" {
		mut = "clean"
	}
	s := fmt.Sprintf("%-5s %-17s g=%-3d actions=%-7d keys=%-3d verdict=%v nodes=%d wall=%v",
		r.Structure, mut, r.Goroutines, r.Actions, r.Live.Keys, r.Live.Verdict, r.Live.Nodes,
		r.Wall.Round(time.Millisecond))
	if r.Live.Verdict == check.NotLinearizable {
		s += fmt.Sprintf("\n      reason: %s", r.Live.Reason)
	}
	if r.EmptyDeqs > 0 {
		s += fmt.Sprintf("\n      empty dequeues: %d", r.EmptyDeqs)
	}
	if r.Classical != nil {
		s += fmt.Sprintf("\n      classical: verdict=%v nodes=%d wall=%v",
			r.Classical.Verdict, r.Classical.Nodes, r.Classical.Wall.Round(time.Millisecond))
		if r.Classical.Verdict == check.NotLinearizable {
			s += fmt.Sprintf(" reason: %s", r.Classical.Reason)
		}
	}
	return s
}
