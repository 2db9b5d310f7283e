package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// This file implements the E18 streaming-memory experiment: a single
// long-lived exact Session fed a deterministic capture-shaped register
// stream (ISSUE 9). Configurations that store nothing of the history
// (DESIGN.md, decisions 17 and 20) plus a budget charged per fed action
// (decision 34) are what make the run possible at all — the
// live heap must stay flat while the history grows by orders of
// magnitude, and the comparison arm shows the heap of a witness-on
// session, which retains the commit chain for witness assembly, growing
// linearly on the identical stream prefix.

// E18 canonical scales.
const (
	// E18FullOps is the streamed operation count of the E18 table;
	// TestE18Shape streams a hundredth of it.
	E18FullOps = 10_000_000
	// E18CompareOps is the length of the comparison arm: long enough that
	// the witness-on session's retained chain (one small node per
	// operation) dwarfs the rest of the process's heap.
	E18CompareOps = 200_000
	// E18Checkpoints is the number of evenly spaced heap samples taken
	// over the stream.
	E18Checkpoints = 8
)

// e18Gen deterministically emits the capture-shaped register stream:
// sequential-heavy (runs of write "a" / read-back pairs, the regime
// where fully-claimed chain prefixes grow and compaction bites) with a
// periodic two-client overlap burst (a read spanning a concurrent
// write, the shape the capture merge's timestamp ties produce). All
// action values are hoisted so steady-state emission allocates nothing
// besides what the session retains — the generator never materializes
// the trace.
type e18Gen struct {
	step               int
	wA, wB, rd         trace.Value
	wOut, rOutA, rOutB trace.Value
	last               trace.Value
}

func newE18Gen() *e18Gen {
	return &e18Gen{
		wA:    adt.WriteInput("a"),
		wB:    adt.WriteInput("b"),
		rd:    adt.ReadInput(),
		wOut:  adt.WriteOutput(),
		rOutA: adt.ReadOutput("a"),
		rOutB: adt.ReadOutput("b"),
	}
}

// emit feeds the next operation(s) into feed and returns how many
// operations (invoke/response pairs) it emitted: 2 for the overlap
// burst, 1 otherwise.
func (g *e18Gen) emit(feed func(trace.Action) error) (int, error) {
	m := g.step % 16
	g.step++
	switch {
	case m == 14:
		// Overlap burst: client p's read spans client q's write of "b",
		// so the read must observe it.
		if err := feed(trace.Invoke("p", 1, g.rd)); err != nil {
			return 0, err
		}
		if err := feed(trace.Invoke("q", 1, g.wB)); err != nil {
			return 0, err
		}
		if err := feed(trace.Response("q", 1, g.wB, g.wOut)); err != nil {
			return 0, err
		}
		if err := feed(trace.Response("p", 1, g.rd, g.rOutB)); err != nil {
			return 0, err
		}
		g.last = g.rOutB
		return 2, nil
	case m%2 == 0:
		if err := feed(trace.Invoke("p", 1, g.wA)); err != nil {
			return 0, err
		}
		if err := feed(trace.Response("p", 1, g.wA, g.wOut)); err != nil {
			return 0, err
		}
		g.last = g.rOutA
		return 1, nil
	default:
		if err := feed(trace.Invoke("p", 1, g.rd)); err != nil {
			return 0, err
		}
		if err := feed(trace.Response("p", 1, g.rd, g.last)); err != nil {
			return 0, err
		}
		return 1, nil
	}
}

// liveHeap forces a collection and returns the post-GC live heap. Peak
// RSS proper is monotone per process and platform-dependent; the post-GC
// HeapAlloc is the machine-independent proxy that can be compared across
// runs.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// E18MemRow is one heap checkpoint of the streaming run. Nodes is
// deterministic (seedless deterministic generator, sequential engine);
// heap bytes are post-GC live heap, stable to well within
// checkStreamRows' factor of two.
type E18MemRow struct {
	Name          string  `json:"name"`
	Ops           int     `json:"ops"`
	LiveHeapBytes uint64  `json:"live_heap_bytes"`
	Nodes         int     `json:"nodes"`
	WallMs        float64 `json:"wall_ms"`
}

// E18StreamMem drives one compacted exact register session through n
// capture-shaped operations and samples the live heap at `checkpoints`
// evenly spaced points. The budget is per fed action: the stream's
// cumulative node count exceeds any fixed budget by design, while each
// individual Feed stays far under it.
func E18StreamMem(ctx context.Context, n, checkpoints int) ([]E18MemRow, error) {
	s := lin.NewSession(ctx, adt.Register{}, check.WithWitness(false))
	g := newE18Gen()
	rows := make([]E18MemRow, 0, checkpoints)
	per := n / checkpoints
	if per < 1 {
		per = 1
	}
	done := 0
	start := time.Now()
	for len(rows) < checkpoints && done < n {
		target := done + per
		if len(rows) == checkpoints-1 || target > n {
			target = n
		}
		for done < target {
			d, err := g.emit(s.Feed)
			if err != nil {
				return nil, fmt.Errorf("E18 op %d: %w", done, err)
			}
			done += d
		}
		rows = append(rows, E18MemRow{
			Name:          fmt.Sprintf("stream-checkpoint-%d", len(rows)+1),
			Ops:           done,
			LiveHeapBytes: liveHeap(),
			Nodes:         s.Nodes(),
			WallMs:        float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	r, err := s.Result()
	if err != nil {
		return nil, fmt.Errorf("E18 result: %w", err)
	}
	if !r.OK {
		return nil, fmt.Errorf("E18 clean stream judged non-linearizable: %s", r.Reason)
	}
	runtime.KeepAlive(s)
	return rows, nil
}

// E18CompareRow contrasts the chain-free session against a witness-on
// session on the identical stream prefix. PeakRSSBytes is the post-GC
// live heap with the session still reachable — for the witness arm this
// is dominated by the O(history) commit chain the frontier's
// configurations point into.
type E18CompareRow struct {
	Name         string  `json:"name"`
	Ops          int     `json:"ops"`
	PeakRSSBytes uint64  `json:"peak_rss_bytes"`
	Nodes        int     `json:"nodes"`
	WallMs       float64 `json:"wall_ms"`
}

// E18CompactVsUncompacted runs both storage modes over the first n
// operations of the E18 stream — the compacted configurations alone, and
// beside them the whole commit chain a witness needs; they spend
// identical nodes. The compacted arm at full E18 scale is E18StreamMem.
func E18CompactVsUncompacted(ctx context.Context, n int) ([]E18CompareRow, error) {
	rows := make([]E18CompareRow, 0, 2)
	for _, arm := range []struct {
		name    string
		witness bool
	}{{"compare-compacted", false}, {"compare-witness-chain", true}} {
		s := lin.NewSession(ctx, adt.Register{}, check.WithWitness(arm.witness))
		g := newE18Gen()
		start := time.Now()
		for done := 0; done < n; {
			d, err := g.emit(s.Feed)
			if err != nil {
				return nil, fmt.Errorf("E18 %s op %d: %w", arm.name, done, err)
			}
			done += d
		}
		wall := float64(time.Since(start).Microseconds()) / 1000
		// The verdict, not Result: assembling the witness would copy one
		// commit history per response, quadratic in the stream.
		if v := s.Verdict(); v != check.Linearizable {
			return nil, fmt.Errorf("E18 %s: verdict %v", arm.name, v)
		}
		rows = append(rows, E18CompareRow{
			Name:         arm.name,
			Ops:          n,
			PeakRSSBytes: liveHeap(),
			Nodes:        s.Nodes(),
			WallMs:       wall,
		})
		runtime.KeepAlive(s)
	}
	return rows, nil
}

// checkStreamRows is the E18 flatness shape at any scale: the live heap
// at every checkpoint stays within twice the first plus 1 MiB of GC
// bookkeeping jitter — no session state proportional to history length.
func checkStreamRows(rows []E18MemRow, checkpoints int) error {
	if len(rows) != checkpoints {
		return fmt.Errorf("E18: got %d checkpoints, want %d", len(rows), checkpoints)
	}
	const slack = 1 << 20
	var errs []error
	first := rows[0].LiveHeapBytes
	for _, r := range rows {
		if r.LiveHeapBytes > 2*first+slack {
			errs = append(errs, fmt.Errorf("E18 %s: live heap %d bytes exceeds 2×first-checkpoint (%d) + 1MiB — "+
				"session state growing with history length", r.Name, r.LiveHeapBytes, first))
		}
	}
	return errors.Join(errs...)
}

// checkCompareRows is the comparison arm's shape: the witness-on session
// retains at least an order of magnitude more live heap than the
// compacted session on the identical prefix.
func checkCompareRows(rows []E18CompareRow) error {
	if len(rows) != 2 {
		return fmt.Errorf("E18: got %d comparison rows, want 2", len(rows))
	}
	comp, ref := rows[0], rows[1]
	if ref.PeakRSSBytes < 10*comp.PeakRSSBytes {
		return fmt.Errorf("E18: witness-on session holds %d bytes vs compacted %d: expected ≥10× — "+
			"does the witness arm still retain the chain?", ref.PeakRSSBytes, comp.PeakRSSBytes)
	}
	return nil
}

// E18StreamMemTable renders the experiment for EXPERIMENTS.md and fails
// if checkStreamRows or checkCompareRows does.
func E18StreamMemTable(ctx context.Context) (Table, error) {
	mem, err := E18StreamMem(ctx, E18FullOps, E18Checkpoints)
	if err != nil {
		return Table{}, err
	}
	cmp, err := E18CompactVsUncompacted(ctx, E18CompareOps)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E18",
		Title:  fmt.Sprintf("Streaming memory: %d capture-shaped ops through one compacted session", E18FullOps),
		Header: []string{"arm", "ops", "live heap MiB", "nodes", "wall ms"},
	}
	for _, r := range mem {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Ops), f2(float64(r.LiveHeapBytes) / (1 << 20)),
			fmt.Sprintf("%d", r.Nodes), f2(r.WallMs)})
	}
	for _, r := range cmp {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Ops), f2(float64(r.PeakRSSBytes) / (1 << 20)),
			fmt.Sprintf("%d", r.Nodes), f2(r.WallMs)})
	}
	first, last := mem[0].LiveHeapBytes, mem[len(mem)-1].LiveHeapBytes
	t.Notes = append(t.Notes,
		fmt.Sprintf("Flatness: checkpoint heap %s → %s MiB over a %d× history growth; "+
			"the witness-on session at %d ops already holds %s MiB.",
			f2(float64(first)/(1<<20)), f2(float64(last)/(1<<20)), E18Checkpoints,
			E18CompareOps, f2(float64(cmp[1].PeakRSSBytes)/(1<<20))))
	return t, errors.Join(checkStreamRows(mem, E18Checkpoints), checkCompareRows(cmp))
}
