// capture: check real concurrent Go code live. Part one instruments a
// shared atomic register by hand — goroutines record each operation's
// invocation and response into lock-free per-goroutine capture buffers,
// and the main goroutine drains the merged trace into an incremental
// checker session *while the workers are still running*. Part two runs
// the packaged hunt harness on the Michael–Scott queue and on its
// seeded-bug mutant (a failed head-CAS that returns its value anyway):
// the clean queue checks linearizable, the mutant is flagged.
//
//	go run ./examples/capture
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	speclin "repro"
	"repro/internal/adt"
	"repro/internal/capture"
	"repro/internal/trace"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// --- Part one: instrument a register by hand -----------------------
	//
	// The structure under test is an atomic.Value used as a string
	// register — genuinely linearizable, so the live verdict must be
	// Linearizable. Each goroutine owns one capture.Proc and brackets
	// every operation with Inv/Res; recording never blocks the workers.
	const workers, opsPer = 4, 200
	var reg atomic.Value
	rec := capture.NewRecorder(workers)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		p := rec.Proc(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.Close() // gate → +∞: stop holding back the watermark
			for seq := 0; seq < opsPer; seq++ {
				uniq := fmt.Sprintf("g%d.%d", i, seq)
				if seq%3 == 0 {
					// Writes carry globally unique values, so the captured
					// history lands in the register fast path's fragment.
					in := adt.WriteInput(trace.Value(uniq))
					p.Inv(in)
					reg.Store(uniq)
					p.Res(in, adt.WriteOutput())
				} else {
					in := adt.Tag(adt.ReadInput(), uniq)
					p.Inv(in)
					v, _ := reg.Load().(string)
					out := adt.ReadOutput(adt.Bottom)
					if v != "" {
						out = adt.ReadOutput(trace.Value(v))
					}
					p.Res(in, out)
				}
			}
		}(i)
	}

	// Live drain loop: everything below the watermark — the minimum gate
	// over all procs — is in its final merge position and can be fed to
	// the session immediately, concurrently with the workers.
	sess, err := speclin.NewSession(ctx, speclin.CheckSpec{Folder: speclin.RegisterADT})
	if err != nil {
		log.Fatal(err)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	var merged trace.Trace
	feed := func(limit int64) {
		start := len(merged)
		merged = rec.Drain(limit, merged)
		for _, a := range merged[start:] {
			if err := sess.Feed(a); err != nil {
				log.Fatal(err)
			}
		}
	}
	drains := 0
	for running := true; running; {
		select {
		case <-workersDone:
			running = false
		case <-time.After(100 * time.Microsecond):
		}
		feed(rec.Watermark())
		drains++
	}
	feed(math.MaxInt64) // every proc closed: drain the remainder

	rep, err := sess.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("register: %d captured actions over %d incremental drains, verdict %s (%d nodes, %s)\n",
		len(merged), drains, rep.Verdict, rep.Nodes, rep.Wall.Round(time.Microsecond))

	// --- Part two: the packaged hunt ----------------------------------
	//
	// capture.Run wires the same recorder around a reference structure,
	// routes the merged history per key, and checks it live (map, mutex
	// and queue stream through fast-path sessions, the set through exact
	// ones). The clean Michael–Scott queue must come back
	// Linearizable with zero empty dequeues.
	clean, err := capture.Run(ctx, capture.Config{
		Structure: capture.StructQueue, Goroutines: 8, Ops: 400, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean   %s\n", clean)

	// The dropped-retry mutant returns a value whose head-CAS lost the
	// race — two dequeuers can both claim one enqueue. Detection depends
	// on the interleaving, so hunts retry with derived seeds; the harness
	// perturbs schedules at the race-critical step to widen the window.
	mut, round, err := capture.RunUntilCaught(ctx, capture.Config{
		Structure: capture.StructQueue, Mutant: capture.MutantDroppedRetry,
		Goroutines: 8, Ops: 400, Seed: 1,
	}, 20)
	if err != nil {
		log.Fatal(err)
	}
	if round == 0 {
		log.Fatal("mutant survived 20 hunt rounds")
	}
	fmt.Printf("mutant  %s\n", mut)
	fmt.Printf("mutant caught in round %d\n", round)
}
