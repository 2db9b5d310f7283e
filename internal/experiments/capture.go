package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	speclin "repro"
	"repro/internal/capture"
)

// This file implements the E17 capture-hunt experiment: the runtime
// capture harness (ISSUE 8) stressing real concurrent Go structures —
// sync.Map as a keyed register map, sync.Mutex, a lazy-list set, a
// Michael–Scott queue — checking the captured histories live, flagging
// every seeded-bug mutant non-linearizable, and measuring the recording
// overhead against the identical uninstrumented loops.

// E17 canonical scales. Goroutine counts resolve at run time so the
// acceptance floor (4×GOMAXPROCS recording workers on clean runs) holds
// on any machine.
var (
	E17Ops         = 2_000  // per-goroutine operations per hunt run
	E17Keys        = 16     // map/set key space
	E17Rounds      = 10     // mutant detection retry rounds
	E17OverheadOps = 20_000 // per-goroutine operations per overhead arm
)

// E17Goroutines is the hunt worker count: the clean-run acceptance
// floor from ISSUE 8.
func E17Goroutines() int { return 4 * runtime.GOMAXPROCS(0) }

// CaptureHuntRow is one hunt run (a structure, clean or mutated). Wall
// times are captured-interleaving dependent, so the row's stable facts
// are the verdicts: clean structures linearizable, mutants caught.
type CaptureHuntRow struct {
	// Name is "hunt-<structure>-clean" or "hunt-<structure>-<mutant>".
	Name       string `json:"name"`
	Structure  string `json:"structure"`
	Mutant     string `json:"mutant,omitempty"`
	Goroutines int    `json:"goroutines"`
	Actions    int64  `json:"actions"`
	// Linearizable is the live verdict of the reported run (for mutants:
	// the catching run).
	Linearizable bool `json:"linearizable"`
	// Caught is set on mutant rows the checker flagged, with the 1-based
	// detection round (each round reruns with a derived seed).
	Caught        bool    `json:"caught,omitempty"`
	RoundsToCatch int     `json:"rounds_to_catch,omitempty"`
	EmptyDeqs     int64   `json:"empty_dequeues,omitempty"`
	WallMs        float64 `json:"wall_ms"`
	// ClassicalAgrees reports the optional uncapped ClassicalLin pass
	// over the same captured history agreeing with the live verdict
	// (clean runs only; omitted when the pass was not run).
	ClassicalAgrees bool `json:"classical_agrees,omitempty"`
}

// CaptureOverheadRow measures recording cost on one structure: the
// identical worker loop uninstrumented vs captured (recording plus live
// merge, no checking).
type CaptureOverheadRow struct {
	// Name is "overhead-<structure>".
	Name            string  `json:"name"`
	Structure       string  `json:"structure"`
	Goroutines      int     `json:"goroutines"`
	Ops             int64   `json:"ops"`
	RawNsPerOp      float64 `json:"raw_ns_per_op"`
	CapturedNsPerOp float64 `json:"captured_ns_per_op"`
	// CaptureThroughputRatio is captured ops/sec over raw ops/sec (≤ 1;
	// closer to 1 is cheaper recording).
	CaptureThroughputRatio float64 `json:"capture_throughput_ratio"`
}

// E17HuntRows hunts every structure: one clean run (expected
// linearizable) and up to rounds mutant runs with derived seeds
// (expected caught). classical additionally cross-checks clean runs
// with the uncapped ClassicalLin engine.
func E17HuntRows(ctx context.Context, goroutines, ops, keys, rounds int, classical bool) ([]CaptureHuntRow, error) {
	var out []CaptureHuntRow
	for _, structure := range capture.Structures {
		cfg := capture.Config{
			Structure:  structure,
			Goroutines: goroutines,
			Ops:        ops,
			Keys:       keys,
			Classical:  classical,
		}
		rep, err := capture.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		// A clean hunt that ends Unknown has no row worth printing: say
		// why the checker gave up (budget with width and overlap, or the
		// caller's deadline).
		if rep.Live.Verdict == speclin.Unknown {
			return nil, fmt.Errorf("E17 hunt-%s-clean: verdict unknown: %s", structure, rep.Live.Reason)
		}
		if rep.Classical != nil && rep.Classical.Verdict == speclin.Unknown {
			return nil, fmt.Errorf("E17 hunt-%s-clean: classical pass unknown: %s", structure, rep.Classical.Reason)
		}
		row := CaptureHuntRow{
			Name:         "hunt-" + structure + "-clean",
			Structure:    structure,
			Goroutines:   rep.Goroutines,
			Actions:      rep.Actions,
			Linearizable: rep.Live.Verdict == speclin.Linearizable,
			EmptyDeqs:    rep.EmptyDeqs,
			WallMs:       float64(rep.Wall) / float64(time.Millisecond),
		}
		if rep.Classical != nil {
			row.ClassicalAgrees = rep.Classical.Verdict == rep.Live.Verdict
		}
		out = append(out, row)

		mutant := capture.Mutants[structure]
		mcfg := cfg
		mcfg.Mutant = mutant
		mcfg.Classical = false
		mcfg.Seed = 1
		mrep, round, err := capture.RunUntilCaught(ctx, mcfg, rounds)
		if err != nil {
			return nil, err
		}
		out = append(out, CaptureHuntRow{
			Name:          "hunt-" + structure + "-" + mutant,
			Structure:     structure,
			Mutant:        mutant,
			Goroutines:    mrep.Goroutines,
			Actions:       mrep.Actions,
			Linearizable:  mrep.Live.Verdict == speclin.Linearizable,
			EmptyDeqs:     mrep.EmptyDeqs,
			WallMs:        float64(mrep.Wall) / float64(time.Millisecond),
			Caught:        round > 0,
			RoundsToCatch: round,
		})
	}
	return out, nil
}

// E17OverheadRows measures capture overhead on every unmutated
// structure.
func E17OverheadRows(goroutines, ops, keys int) ([]CaptureOverheadRow, error) {
	var out []CaptureOverheadRow
	for _, structure := range capture.Structures {
		o, err := capture.Overhead(capture.Config{
			Structure:  structure,
			Goroutines: goroutines,
			Ops:        ops,
			Keys:       keys,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, CaptureOverheadRow{
			Name:                   "overhead-" + structure,
			Structure:              structure,
			Goroutines:             o.Goroutines,
			Ops:                    o.RawOps,
			RawNsPerOp:             o.RawNsPerOp(),
			CapturedNsPerOp:        o.CapturedNsPerOp(),
			CaptureThroughputRatio: o.ThroughputRatio(),
		})
	}
	return out, nil
}

// checkHuntRows is the E17 shape at any scale: clean structures check
// linearizable live, the classical cross-check agrees, the queue records
// no empty dequeue, and every seeded mutant is caught.
func checkHuntRows(rows []CaptureHuntRow) error {
	if want := 2 * len(capture.Structures); len(rows) != want {
		return fmt.Errorf("E17: got %d hunt rows, want %d (every structure clean + mutant)", len(rows), want)
	}
	var errs []error
	for _, r := range rows {
		switch {
		case r.Mutant != "":
			if !r.Caught {
				errs = append(errs, fmt.Errorf("%s: mutant not caught", r.Name))
			}
		case !r.Linearizable:
			errs = append(errs, fmt.Errorf("%s: clean run not linearizable", r.Name))
		case !r.ClassicalAgrees:
			errs = append(errs, fmt.Errorf("%s: classical pass disagrees with live verdict", r.Name))
		case r.EmptyDeqs != 0:
			errs = append(errs, fmt.Errorf("%s: %d empty dequeues on a clean run", r.Name, r.EmptyDeqs))
		}
	}
	return errors.Join(errs...)
}

// checkOverheadRows rejects an overhead measurement that timed nothing.
func checkOverheadRows(rows []CaptureOverheadRow) error {
	var errs []error
	for _, o := range rows {
		if o.RawNsPerOp <= 0 || o.CapturedNsPerOp <= 0 || o.CaptureThroughputRatio <= 0 {
			errs = append(errs, fmt.Errorf("%s: implausible overhead row %+v", o.Name, o))
		}
	}
	return errors.Join(errs...)
}

// E17CaptureHunt: the new-subsystem claim — real concurrent Go
// structures checked linearizable from live captured histories, every
// seeded-bug mutant flagged, recording overhead measured. The run fails
// if checkHuntRows or checkOverheadRows does.
func E17CaptureHunt(ctx context.Context) (Table, error) {
	t := Table{
		ID: "E17",
		Title: fmt.Sprintf("capture hunt: live-checked real structures, %d goroutines (seeds 1..%d)",
			E17Goroutines(), E17Rounds),
		Header: []string{"structure", "mutant", "actions", "verdict", "round", "empty deqs", "wall ms"},
		Notes: []string{
			"Clean rows stress the unmutated structure and must check linearizable live; " +
				"mutant rows rerun with derived seeds until the seeded bug is flagged " +
				"non-linearizable (detection is interleaving-dependent). The overhead rows " +
				"run the identical worker loops uninstrumented vs captured.",
		},
	}
	hunts, err := E17HuntRows(ctx, E17Goroutines(), E17Ops, E17Keys, E17Rounds, true)
	if err != nil {
		return t, err
	}
	for _, r := range hunts {
		mut := r.Mutant
		verdict := "linearizable"
		round := "-"
		if mut == "" {
			mut = "clean"
		} else {
			if r.Caught {
				verdict = "caught (not linearizable)"
				round = fmt.Sprintf("%d", r.RoundsToCatch)
			} else {
				verdict = "NOT CAUGHT"
			}
		}
		if mut == "clean" && !r.Linearizable {
			verdict = "NOT LINEARIZABLE (unexpected)"
		}
		t.Rows = append(t.Rows, []string{
			r.Structure, mut, fmt.Sprintf("%d", r.Actions), verdict, round,
			fmt.Sprintf("%d", r.EmptyDeqs), fmt.Sprintf("%.0f", r.WallMs),
		})
	}
	overheads, err := E17OverheadRows(E17Goroutines(), E17OverheadOps, E17Keys)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"", "", "", "", "", "", ""})
	for _, o := range overheads {
		t.Rows = append(t.Rows, []string{
			o.Structure, "overhead",
			fmt.Sprintf("%d ops", o.Ops),
			fmt.Sprintf("raw %.0f ns/op, captured %.0f ns/op", o.RawNsPerOp, o.CapturedNsPerOp),
			"-", "-",
			fmt.Sprintf("ratio %.3f", o.CaptureThroughputRatio),
		})
	}
	return t, errors.Join(checkHuntRows(hunts), checkOverheadRows(overheads))
}
