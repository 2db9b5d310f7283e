package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/msgnet"
	"repro/internal/smr"
	"repro/internal/workload"
)

// This file implements the E12 shard sweep, the sharded-SMR scaling
// experiment. One run drives a keyed KV workload through a
// ShardedCluster at a paced (open-loop) offered load, then verifies
// per-shard log consistency and per-key linearizability of every
// recorded history.

// ShardRunConfig parameterizes one sharded run.
type ShardRunConfig struct {
	Shards   int
	Commands int
	Clients  int
	Servers  int
	// Keys is the number of distinct keys (0: Commands/64, the workload
	// default, keeping per-key histories short for the exact checker).
	Keys int
	// ReadFrac is the fraction of reads (0: workload default 0.3;
	// negative: pure-write).
	ReadFrac float64
	// ZipfS skews keys with a zipf law; must exceed 1 (0: uniform).
	ZipfS float64
	// Pace is the per-client feed period in message delays; every Pace
	// delays a client enqueues one command per shard stream. Clients are
	// phase-staggered within the period. 0 submits everything at t=0 (a
	// closed-loop saturation burst).
	Pace msgnet.Time
	// Seed drives the workload and the network.
	Seed int64
	// CompactEvery is the log-compaction window (0 disables).
	CompactEvery int
	// Budget is the check budget, in search nodes per fed action (0:
	// check.DefaultBudget).
	Budget int
	// SkipCheck skips history checking (pure throughput runs).
	SkipCheck bool
	// Online streams per-key histories through incremental checker
	// sessions during the run (smr.ShardedConfig.OnlineCheck) instead of
	// buffering them for a post-hoc pass; CheckLinearizable then
	// collects the sessions' verdicts.
	Online bool
	// Exact forces the exact frontier engine on the online per-key
	// sessions (smr.ShardedConfig.ExactCheck). The default dispatches
	// them to the register fast-path checker — per-key histories are in
	// its fragment by construction (DESIGN.md, decision 15).
	Exact bool
}

func (c ShardRunConfig) withDefaults() ShardRunConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Commands <= 0 {
		c.Commands = 10_000
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Servers <= 0 {
		c.Servers = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ShardRunResult reports one sharded run.
type ShardRunResult struct {
	Shards       int    `json:"shards"`
	Commands     int    `json:"commands"`
	Keys         int    `json:"keys"`
	Distribution string `json:"distribution"`

	SimTime        int64   `json:"sim_time_delays"`
	CmdsPerDelay   float64 `json:"commands_per_delay"`
	MeanLatency    float64 `json:"mean_latency_delays"`
	FastPathRate   float64 `json:"fast_path_rate"`
	SwitchesPerCmd float64 `json:"switches_per_cmd"`
	WallMs         float64 `json:"wall_ms"`
	CmdsPerSecWall float64 `json:"commands_per_sec_wall"`

	Online       bool  `json:"online_check"`
	KeyHistories int   `json:"key_histories_checked"`
	CheckedOps   int64 `json:"checked_ops"`
	CheckNodes   int64 `json:"check_nodes"`
	// CheckWallMs is the full linearizability-checking wall: post hoc,
	// the batch pass over the recorded histories; online, the cumulative
	// time spent inside the sessions' Feed calls during the run
	// (smr.HistoryCheck.FeedWall — timed per feed, since the overhead is
	// far too small a fraction of WallMs to recover from run deltas)
	// plus the final verdict collection.
	CheckWallMs  float64 `json:"check_wall_ms"`
	Linearizable bool    `json:"linearizable"`
	Consistent   bool    `json:"consistent"`

	// ScheduleDigest is the hex form of the network's effective-schedule
	// digest (msgnet.Network.ScheduleDigest): two runs with equal digests
	// executed the identical event schedule. A hex string rather than a
	// number so 64-bit values survive JSON round-trips undamaged. The
	// chaos harness (chaos.go) asserts its plan-free runs reproduce this
	// digest event for event.
	ScheduleDigest string `json:"schedule_digest"`
}

// RunSharded executes one sharded run and verifies it.
func RunSharded(ctx context.Context, cfg ShardRunConfig) (ShardRunResult, error) {
	_, res, err := runShardedCluster(ctx, cfg)
	return res, err
}

// runShardedCluster is RunSharded exposing the finished cluster, so the
// E16 fast-path experiment (fastpath.go) can lift the recorded per-key
// traces for its one-shot engine comparison.
func runShardedCluster(ctx context.Context, cfg ShardRunConfig) (*smr.ShardedCluster, ShardRunResult, error) {
	cfg = cfg.withDefaults()
	wl := workload.KeyedOpts{
		Clients:  cfg.Clients,
		Ops:      cfg.Commands,
		Keys:     cfg.Keys,
		ReadFrac: cfg.ReadFrac,
		ZipfS:    cfg.ZipfS,
	}
	ops := workload.Keyed(rand.New(rand.NewSource(cfg.Seed)), wl)
	perClient := make([][]smr.Command, cfg.Clients)
	for _, op := range ops {
		var cmd smr.Command
		if op.Read {
			cmd = smr.GetCmd(op.Key, op.Value)
		} else {
			cmd = smr.SetCmd(op.Key, op.Value)
		}
		perClient[op.Client] = append(perClient[op.Client], cmd)
	}
	keys := map[string]bool{}
	for _, op := range ops {
		keys[op.Key] = true
	}

	res := ShardRunResult{
		Shards:       cfg.Shards,
		Commands:     cfg.Commands,
		Keys:         len(keys),
		Distribution: "uniform",
		Online:       cfg.Online,
	}
	if cfg.ZipfS > 0 {
		res.Distribution = fmt.Sprintf("zipf(%.2g)", cfg.ZipfS)
	}

	w := msgnet.New(msgnet.Config{Seed: cfg.Seed, MinDelay: 1, MaxDelay: 2})
	clients := procIDs("c", cfg.Clients)
	sc, err := smr.BuildSharded(w, clients, procIDs("s", cfg.Servers), smr.ShardedConfig{
		Config: smr.Config{
			FastPath:      true,
			QuorumTimeout: 8,
			Retransmit:    6,
			CompactEvery:  cfg.CompactEvery,
		},
		Shards:       cfg.Shards,
		OnlineCheck:  cfg.Online,
		CheckBudget:  cfg.Budget,
		CheckContext: ctx,
		ExactCheck:   cfg.Exact,
	})
	if err != nil {
		return nil, res, err
	}
	start := time.Now()
	for i, c := range clients {
		offset := msgnet.Time(0)
		if cfg.Pace > 0 {
			offset = msgnet.Time(i) * cfg.Pace / msgnet.Time(cfg.Clients)
		}
		sc.SubmitPaced(c, perClient[i], offset, cfg.Pace)
	}
	end := sc.Run(1 << 40)
	wall := time.Since(start)
	res.ScheduleDigest = fmt.Sprintf("%016x", w.ScheduleDigest())

	st := sc.Stats()
	if st.Landed != int64(cfg.Commands) {
		return sc, res, fmt.Errorf("landed %d/%d commands", st.Landed, cfg.Commands)
	}
	res.SimTime = int64(end)
	if end > 0 {
		res.CmdsPerDelay = float64(st.Landed) / float64(end)
	}
	res.MeanLatency = st.MeanLatency()
	res.FastPathRate = st.FastPathRate()
	res.SwitchesPerCmd = float64(st.Switches) / float64(st.Landed)
	res.WallMs = float64(wall.Microseconds()) / 1000
	res.CmdsPerSecWall = float64(st.Landed) / wall.Seconds()

	res.Consistent = sc.CheckConsistency() == nil
	if !res.Consistent {
		return sc, res, fmt.Errorf("consistency: %v", sc.CheckConsistency())
	}
	if !cfg.SkipCheck {
		cstart := time.Now()
		sum, err := sc.CheckLinearizable(ctx, check.WithBudget(cfg.Budget))
		res.CheckWallMs = float64((time.Since(cstart) + sum.FeedWall).Microseconds()) / 1000
		if err != nil {
			return sc, res, err
		}
		res.Linearizable = true
		res.KeyHistories = sum.Traces
		res.CheckedOps = sum.Ops
		res.CheckNodes = sum.Nodes
	}
	return sc, res, nil
}

// ShardSweep runs RunSharded across shard counts with a fixed per-shard
// command load (weak scaling: the offered load per shard is constant, so
// sustained total throughput should grow linearly with the shard count).
func ShardSweep(ctx context.Context, shards []int, perShard int, base ShardRunConfig) ([]ShardRunResult, error) {
	var out []ShardRunResult
	for _, n := range shards {
		cfg := base
		cfg.Shards = n
		cfg.Commands = perShard * n
		r, err := RunSharded(ctx, cfg)
		if err != nil {
			return out, fmt.Errorf("E12 shards=%d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// E12Shards, E12PerShard and E12ZipfPerShard define the canonical E12
// sweep: ≥1M simulated commands at the largest configuration, plus one
// zipf-skewed row at 4 shards.
var (
	E12Shards       = []int{1, 2, 4, 8, 16}
	E12PerShard     = 62_500
	E12ZipfPerShard = 16_000
)

// E12Rows builds the E12 result set — the uniform weak-scaling sweep
// followed by one zipf(1.2) row at 4 shards — at the given scale: the
// E12 table runs it at full scale, TestE12Shape scaled down.
func E12Rows(ctx context.Context, shards []int, perShard, zipfPerShard int) ([]ShardRunResult, error) {
	rows, err := ShardSweep(ctx, shards, perShard, E12Base)
	if err != nil {
		return rows, err
	}
	zipf := E12Base
	zipf.ZipfS = 1.2
	zipf.Shards = 4
	zipf.Commands = 4 * zipfPerShard
	zrow, err := RunSharded(ctx, zipf)
	if err != nil {
		return rows, fmt.Errorf("E12 zipf: %w", err)
	}
	return append(rows, zrow), nil
}

// checkShardRows is the E12 shape at any scale: every landed command was
// checked and its history is linearizable, logs agree, and throughput in
// commands per message delay scales near-linearly from the first to the
// last uniform row (constant per-shard offered load).
func checkShardRows(rows []ShardRunResult) error {
	var errs []error
	for _, r := range rows {
		if !r.Linearizable || !r.Consistent {
			errs = append(errs, fmt.Errorf("shards=%d %s: linearizable=%v consistent=%v",
				r.Shards, r.Distribution, r.Linearizable, r.Consistent))
		}
		if int64(r.Commands) != r.CheckedOps {
			errs = append(errs, fmt.Errorf("shards=%d %s: checked %d ops of %d landed commands",
				r.Shards, r.Distribution, r.CheckedOps, r.Commands))
		}
	}
	first, last := rows[0], rows[len(rows)-2] // the zipf row follows the uniform sweep
	want := 0.7 * float64(last.Shards) / float64(first.Shards)
	if got := last.CmdsPerDelay / first.CmdsPerDelay; got < want {
		errs = append(errs, fmt.Errorf("throughput scaled %.2fx from %d to %d shards (want ≥ %.2fx)",
			got, first.Shards, last.Shards, want))
	}
	return errors.Join(errs...)
}

// E12Base is the canonical E12 configuration (shards/commands filled by
// the sweep): 4 clients paced at one command per shard stream every 12
// delays (phase-staggered), 3 servers, compaction window 64.
var E12Base = ShardRunConfig{
	Clients:      4,
	Servers:      3,
	Pace:         12,
	ReadFrac:     0.3,
	Seed:         1,
	CompactEvery: 64,
}

// E12ShardSweep: the sharded-SMR scaling claim — hash-partitioning a
// keyed workload across independent speculative logs scales sustained
// throughput linearly while per-key linearizability and per-shard log
// agreement continue to hold, checked exactly. The run fails if the
// shape (checkShardRows) does not hold at full scale or the largest
// configuration lands fewer than a million commands.
func E12ShardSweep(ctx context.Context) (Table, error) {
	t := Table{
		ID:    "E12",
		Title: "sharded SMR shard sweep (4 clients, 3 servers, paced open-loop keyed KV, seed 1)",
		Header: []string{"shards", "commands", "dist", "cmds/delay", "×1-shard",
			"fast-path", "mean latency", "key histories", "lin", "consistent"},
		Notes: []string{
			"Weak scaling: 62,500 commands per shard (1,000,000 at 16 shards). Every " +
				"shard's history is decomposed per key and checked with the exact " +
				"checker (lin.Check on the batch pool of GOMAXPROCS workers); log agreement is " +
				"verified per shard. The zipf row skews keys (hot shards pace the run).",
		},
	}
	rows, err := E12Rows(ctx, E12Shards, E12PerShard, E12ZipfPerShard)
	if err != nil {
		return t, err
	}

	base := rows[0].CmdsPerDelay
	for _, r := range rows {
		lineariz := "yes"
		if !r.Linearizable {
			lineariz = "NO"
		}
		cons := "yes"
		if !r.Consistent {
			cons = "NO"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Commands),
			r.Distribution,
			fmt.Sprintf("%.3f", r.CmdsPerDelay),
			f2(r.CmdsPerDelay / base),
			pct(int(r.FastPathRate*1000), 1000),
			f2(r.MeanLatency),
			fmt.Sprintf("%d", r.KeyHistories),
			lineariz,
			cons,
		})
	}
	err = checkShardRows(rows)
	if top := rows[len(rows)-2]; top.Commands < 1_000_000 {
		err = errors.Join(err, fmt.Errorf("E12: largest configuration landed %d commands (want ≥ 1,000,000)", top.Commands))
	}
	return t, err
}
