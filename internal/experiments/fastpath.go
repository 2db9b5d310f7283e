package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// This file implements the E16 fast-path experiment: the
// ADT-specialized register checker (reduction to state reachability,
// DESIGN.md decision 15) against the exact frontier engine, over the
// per-key histories of a sharded SMR run. Both engines are measured two
// ways — one-shot over the recorded histories, and streamed through the
// online per-key checker sessions during the simulation — on a uniform
// and a zipf-skewed key distribution.

// E16 canonical scales: the uniform workload lands one million simulated
// commands (the E12 top configuration); the zipf row reuses the E12 skew
// point.
var (
	E16UniformShards   = 16
	E16UniformCommands = 16 * E12PerShard // 1,000,000
	E16ZipfShards      = 4
	E16ZipfCommands    = 4 * E12ZipfPerShard
)

// E16KeysDivisor sets the uniform workload's per-key history length to
// ~384 operations (E12 keeps them at ~64 — "short for the exact
// checker"). E16 compares checker costs, so it runs histories long
// enough for a cost that grew with them to show. Since the frontier
// session's configurations are keyed on live overlap (DESIGN.md,
// decision 20) none does: its cost per feed follows the operations
// open on the key, about one search node per fed action on the
// uniform rows and under a hundred on the zipf rows' hot keys, where
// it used to starve any realistic budget. The specialized core stays
// O(1) amortized whatever the overlap.
const E16KeysDivisor = 384

// FastpathRow is one engine × mode measurement.
type FastpathRow struct {
	// Name identifies the row: "oneshot-exact", "oneshot-fast",
	// "session-exact", "session-fast", or "run-nocheck" (the
	// checking-free simulation baseline the online overhead is measured
	// against).
	Name         string `json:"name"`
	Mode         string `json:"mode"`   // oneshot | session | baseline
	Engine       string `json:"engine"` // exact | fast | none
	Distribution string `json:"distribution"`
	Shards       int    `json:"shards"`
	Commands     int    `json:"commands"`

	KeyHistories int   `json:"key_histories_checked"`
	CheckedOps   int64 `json:"checked_ops"`
	CheckNodes   int64 `json:"check_nodes"`
	// CheckWallMs is the engine's checking wall: the batch pass for
	// one-shot rows; for session rows the cumulative time spent inside
	// the sessions' Feed calls during the run plus verdict collection
	// (smr.HistoryCheck.FeedWall — timed per feed because even the exact
	// engine's overhead is a modest fraction of the simulation wall, so
	// run-to-run wall deltas would drown the fast path's in noise).
	CheckWallMs float64 `json:"check_wall_ms"`
	// RunWallMs is the full simulation wall for session rows (which
	// embeds CheckWallMs — the feeding happens inside the run) and for
	// the run-nocheck baseline.
	RunWallMs    float64 `json:"run_wall_ms,omitempty"`
	Linearizable bool    `json:"linearizable"`
	// BudgetExhausted marks a session-exact row whose per-key frontier
	// session ran out of search budget before the run ended; the error
	// text of the session says at which width and overlap. The row is
	// kept so the table still prints, and the full-scale experiment
	// fails on it: hot zipf keys used to end this way and no longer do
	// (the fast sessions spend no budget at all).
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// ScheduleDigest must agree across the session rows and the baseline:
	// checking happens outside the simulated network, so flipping the
	// engine can never perturb the schedule.
	ScheduleDigest string `json:"schedule_digest,omitempty"`
}

// FastpathDist is one distribution's measurement set.
type FastpathDist struct {
	Distribution string `json:"distribution"`
	Shards       int    `json:"shards"`
	Commands     int    `json:"commands"`
	// OneshotSpeedup is exact one-shot check wall over fast one-shot
	// check wall, measured interleaved in one process. Modest by design:
	// with its response lookahead the exact engine already decides easy
	// register histories in a few nodes per operation.
	OneshotSpeedup float64 `json:"oneshot_check_speedup"`
	// OnlineSpeedup is the headline E16 claim (≥10x at the 1M-command
	// scale): the exact frontier sessions' online check wall over the
	// fast sessions' — each the per-feed-timed checking overhead
	// embedded in that run (FastpathRow.CheckWallMs). The ~100ns clock
	// read per feed weighs proportionally more on the fast engine, so
	// the measured ratio is biased conservatively down.
	OnlineSpeedup float64 `json:"online_check_speedup,omitempty"`
	// OnlineSpeedupLB marks OnlineSpeedup as a strict lower bound: the
	// exact sessions starved their per-key search budget mid-run (see
	// BudgetExhausted), so the numerator is only the checking wall they
	// burned before giving up — every node the dead keys still owed is
	// unpriced. Budget exhaustion is deterministic for a given seed (the
	// gate is a node count over a digest-pinned schedule).
	OnlineSpeedupLB bool          `json:"online_speedup_is_lower_bound,omitempty"`
	Rows            []FastpathRow `json:"rows"`
}

// FastpathRows measures one distribution: a checking-free run collects
// the per-key histories and the schedule baseline, both one-shot engines
// check the identical histories, and two further online runs stream the
// same workload through exact and fast checker sessions. It errors if
// any verdict or schedule digest disagrees across the five measurements.
func FastpathRows(ctx context.Context, base ShardRunConfig) (FastpathDist, error) {
	collect := base
	collect.SkipCheck = true
	collect.Online = false
	sc, res, err := runCluster(ctx, collect, clusterRun{feed: &keyedFeed{}})
	if err != nil {
		return FastpathDist{}, fmt.Errorf("E16 %s collect: %w", res.Distribution, err)
	}
	d := FastpathDist{Distribution: res.Distribution, Shards: res.Shards, Commands: res.Commands}
	baseline := FastpathRow{
		Name: "run-nocheck", Mode: "baseline", Engine: "none",
		Distribution: d.Distribution, Shards: d.Shards, Commands: d.Commands,
		RunWallMs: res.WallMs, ScheduleDigest: res.ScheduleDigest,
	}

	var ts []trace.Trace
	for k := 0; k < sc.Shards(); k++ {
		ts = append(ts, sc.KeyTraces(k)...)
	}
	// No witnesses, as in the sessions of the online rows: the table keeps
	// verdicts and node counts only, and the register core's witness is a
	// history prefix cloned per response — quadratic in a key's history,
	// seconds on the zipf hot key alone.
	opts := []check.Option{check.WithBudget(base.Budget), check.WithWitness(false)}
	exact := append(opts[:len(opts):len(opts)], check.WithExact(true))

	oneshot := func(engine string, run func(trace.Trace) (lin.Result, error)) (FastpathRow, error) {
		row := FastpathRow{
			Name: "oneshot-" + engine, Mode: "oneshot", Engine: engine,
			Distribution: d.Distribution, Shards: d.Shards, Commands: d.Commands,
			KeyHistories: len(ts), Linearizable: true,
		}
		start := time.Now()
		rs, err := check.Parallel(ctx, ts, 0, func(_ int, t trace.Trace) (lin.Result, error) {
			return run(t)
		})
		row.CheckWallMs = wallMs(time.Since(start))
		if err != nil {
			return row, fmt.Errorf("E16 %s %s: %w", d.Distribution, row.Name, err)
		}
		for _, r := range rs {
			row.CheckNodes += int64(r.Nodes)
			row.Linearizable = row.Linearizable && r.OK
		}
		for _, t := range ts {
			row.CheckedOps += int64(len(t)) / 2
		}
		return row, nil
	}
	exactOne, err := oneshot("exact", func(t trace.Trace) (lin.Result, error) {
		return lin.Check(ctx, adt.Register{}, t, exact...)
	})
	if err != nil {
		return d, err
	}
	fastOne, err := oneshot("fast", func(t trace.Trace) (lin.Result, error) {
		return lin.Check(ctx, adt.Register{}, t, opts...)
	})
	if err != nil {
		return d, err
	}

	session := func(engine string, exact bool) (FastpathRow, error) {
		cfg := base
		cfg.Online = true
		cfg.SkipCheck = false
		cfg.Exact = exact
		r, err := RunSharded(ctx, cfg)
		row := FastpathRow{
			Name: "session-" + engine, Mode: "session", Engine: engine,
			Distribution: d.Distribution, Shards: d.Shards, Commands: d.Commands,
			KeyHistories: r.KeyHistories, CheckedOps: r.CheckedOps,
			CheckNodes: r.CheckNodes, CheckWallMs: r.CheckWallMs,
			RunWallMs: r.WallMs, Linearizable: r.Linearizable,
			ScheduleDigest: r.ScheduleDigest,
		}
		if err != nil {
			// Budget exhaustion of an exact per-key session is a measured
			// outcome, not a failed experiment (see BudgetExhausted).
			if exact && errors.Is(err, lin.ErrBudget) {
				row.BudgetExhausted = true
				return row, nil
			}
			return row, fmt.Errorf("E16 %s %s: %w", d.Distribution, row.Name, err)
		}
		return row, nil
	}
	exactSess, err := session("exact", true)
	if err != nil {
		return d, err
	}
	fastSess, err := session("fast", false)
	if err != nil {
		return d, err
	}

	for _, row := range []FastpathRow{exactOne, fastOne, exactSess, fastSess} {
		if !row.Linearizable && !row.BudgetExhausted {
			return d, fmt.Errorf("E16 %s %s: history not linearizable", d.Distribution, row.Name)
		}
	}
	for _, row := range []FastpathRow{exactSess, fastSess} {
		if row.ScheduleDigest != baseline.ScheduleDigest {
			return d, fmt.Errorf("E16 %s %s: schedule digest %s diverged from baseline %s (checking leaked into the simulation)",
				d.Distribution, row.Name, row.ScheduleDigest, baseline.ScheduleDigest)
		}
	}
	if fastOne.CheckWallMs > 0 {
		d.OneshotSpeedup = exactOne.CheckWallMs / fastOne.CheckWallMs
	}
	if fastSess.CheckWallMs > 0 {
		d.OnlineSpeedup = exactSess.CheckWallMs / fastSess.CheckWallMs
		d.OnlineSpeedupLB = exactSess.BudgetExhausted
	}
	d.Rows = []FastpathRow{baseline, exactOne, fastOne, exactSess, fastSess}
	return d, nil
}

// E16Rows builds the E16 result set — uniform at the 1M-command scale
// and zipf(1.2) at 4 shards — from shared knobs (E12Base).
func E16Rows(ctx context.Context, uniformShards, uniformCommands, zipfCommands int) ([]FastpathDist, error) {
	uni := E12Base
	uni.Shards = uniformShards
	uni.Commands = uniformCommands
	uni.Keys = uniformCommands / E16KeysDivisor
	ud, err := FastpathRows(ctx, uni)
	if err != nil {
		return nil, err
	}
	zipf := E12Base
	zipf.ZipfS = 1.2
	zipf.Shards = E16ZipfShards
	zipf.Commands = zipfCommands
	zd, err := FastpathRows(ctx, zipf)
	if err != nil {
		return []FastpathDist{ud}, err
	}
	return []FastpathDist{ud, zd}, nil
}

// checkFastpathDist is the E16 shape at any scale: every engine reaches
// a verdict (or, for an exact session, exhausts its budget), and the
// fast path spends exactly one node per fed action. FastpathRows itself
// already rejects schedule-digest divergence.
func checkFastpathDist(d FastpathDist) error {
	if len(d.Rows) != 5 {
		return fmt.Errorf("E16 %s: got %d rows, want 5", d.Distribution, len(d.Rows))
	}
	var errs []error
	for _, r := range d.Rows {
		if r.Mode == "baseline" {
			continue
		}
		if !r.Linearizable && !r.BudgetExhausted {
			errs = append(errs, fmt.Errorf("E16 %s %s: histories not linearizable", d.Distribution, r.Name))
		}
		if r.Engine == "fast" && r.CheckNodes != 2*r.CheckedOps {
			errs = append(errs, fmt.Errorf("E16 %s %s: fast path spent %d nodes for %d ops (want one per fed action)",
				d.Distribution, r.Name, r.CheckNodes, r.CheckedOps))
		}
	}
	return errors.Join(errs...)
}

// E16FastpathCheckers: the perf-opt claim — reducing register
// linearizability to state reachability over per-value write blocks
// decides the sharded per-key histories in near-linear time, an order of
// magnitude under the exact frontier engine at the 1M-command scale,
// one-shot and streamed alike, with identical verdicts and schedules.
// The run fails if the shape (checkFastpathDist) does not hold, the
// uniform workload lands fewer than a million commands, or an exact
// session starves its per-feed budget on either distribution — the zipf
// rows' hot keys included, which is where a frontier whose width
// followed the history instead of the live overlap used to give up.
func E16FastpathCheckers(ctx context.Context) (Table, error) {
	t := Table{
		ID:    "E16",
		Title: "ADT-specialized fast-path checker vs exact engine (sharded per-key histories, seed 1)",
		Header: []string{"dist", "commands", "mode", "engine", "key histories",
			"check nodes", "check wall ms", "run wall ms", "lin"},
		Notes: []string{
			"One-shot rows check the identical recorded histories with both engines " +
				"(interleaved, same worker pool); session rows stream the same workload " +
				"through online per-key checker sessions during the simulation — their " +
				"check wall is the per-feed-timed overhead embedded in the run wall. " +
				"run-nocheck is the checking-free simulation baseline; all three runs of a " +
				"distribution must reproduce one schedule digest.",
		},
	}
	dists, err := E16Rows(ctx, E16UniformShards, E16UniformCommands, E16ZipfCommands)
	if err != nil {
		return t, err
	}
	for _, d := range dists {
		for _, r := range d.Rows {
			lineariz := yesNo(r.Linearizable)
			switch {
			case r.Mode == "baseline":
				lineariz = "-"
			case r.BudgetExhausted:
				lineariz = "budget exhausted"
			}
			t.Rows = append(t.Rows, []string{
				d.Distribution,
				fmt.Sprintf("%d", r.Commands),
				r.Mode,
				r.Engine,
				fmt.Sprintf("%d", r.KeyHistories),
				fmt.Sprintf("%d", r.CheckNodes),
				fmt.Sprintf("%.0f", r.CheckWallMs),
				fmt.Sprintf("%.0f", r.RunWallMs),
				lineariz,
			})
		}
		online := fmt.Sprintf("online check speedup %.1fx (per-feed-timed session overhead)", d.OnlineSpeedup)
		if d.OnlineSpeedupLB {
			online = fmt.Sprintf("online check speedup ≥%.0fx — a lower bound: the exact sessions "+
				"starved their search budget after %.0fs of checking wall", d.OnlineSpeedup,
				d.Rows[3].CheckWallMs/1000)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: one-shot check speedup %.1fx; %s.",
			d.Distribution, d.OneshotSpeedup, online))
	}

	uni, zipf := dists[0], dists[1]
	errs := []error{checkFastpathDist(uni), checkFastpathDist(zipf)}
	if uni.Commands < 1_000_000 {
		errs = append(errs, fmt.Errorf("E16: uniform configuration landed %d commands (want ≥ 1,000,000)", uni.Commands))
	}
	for _, d := range dists {
		for _, r := range d.Rows {
			if r.Name == "session-exact" && r.BudgetExhausted {
				errs = append(errs, fmt.Errorf("E16: %s session-exact starved its per-feed budget; decision 20 expects completion", d.Distribution))
			}
		}
	}
	for _, r := range zipf.Rows {
		if r.Name == "session-fast" && !r.Linearizable {
			errs = append(errs, errors.New("E16: zipf session-fast: histories not linearizable"))
		}
	}
	return t, errors.Join(errs...)
}

func wallMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
