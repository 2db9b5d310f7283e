package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/faults"
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
	_, res, err := runCluster(ctx, cfg, clusterRun{feed: &keyedFeed{}})
	return res, err
}

// clusterRun is what a runner adds to runCluster: RunSharded only the
// keyed feed, RunChaos its protocol arming, landing windows and fault
// plan, RunTxn its transactional feed and checks.
type clusterRun struct {
	feed clusterFeed
	// proto arms the protocol beyond what every run shares (recovery,
	// retry timeout).
	proto smr.Config
	// land, when set, observes every landed submission
	// (smr.ShardedCluster.SetHooks).
	land func(smr.SubmitResult)
	// plan is applied between the build and the feed; the zero plan
	// injects nothing.
	plan faults.Plan
	// landed, when set, checks and reads the runner's own counters once
	// every submission landed.
	landed func(w *msgnet.Network, st smr.ShardedStats) error
}

// A clusterFeed is the workload side of runCluster: the items it
// generates, the cluster it submits them to and the check it runs.
// keyedFeed is E12's and E15's, txnFeed (txn.go) E19's.
type clusterFeed interface {
	// items generates every client's items.
	items(cfg ShardRunConfig)
	build(w *msgnet.Network, clients, servers []msgnet.ProcID, cfg smr.ShardedConfig) (*smr.ShardedCluster, error)
	// submit feeds client i's items from start, one step every pace.
	submit(i int, c msgnet.ProcID, start, pace msgnet.Time)
	verify(ctx context.Context, opts ...check.Option) (smr.HistoryCheck, error)
}

// keyedFeed is the keyed KV workload, paced per shard stream into a
// plain ShardedCluster.
type keyedFeed struct {
	sc        *smr.ShardedCluster
	perClient [][]smr.Command
}

func (f *keyedFeed) items(cfg ShardRunConfig) {
	ops := workload.Keyed(rand.New(rand.NewSource(cfg.Seed)), keyedOpts(cfg))
	f.perClient = make([][]smr.Command, cfg.Clients)
	for _, op := range ops {
		var cmd smr.Command
		if op.Read {
			cmd = smr.GetCmd(op.Key, op.Value)
		} else {
			cmd = smr.SetCmd(op.Key, op.Value)
		}
		f.perClient[op.Client] = append(f.perClient[op.Client], cmd)
	}
}

// keyedOpts is the keyed workload a run's config asks for.
func keyedOpts(cfg ShardRunConfig) workload.KeyedOpts {
	return workload.KeyedOpts{
		Clients:  cfg.Clients,
		Ops:      cfg.Commands,
		Keys:     cfg.Keys,
		ReadFrac: cfg.ReadFrac,
		ZipfS:    cfg.ZipfS,
	}
}

func (f *keyedFeed) build(w *msgnet.Network, clients, servers []msgnet.ProcID, cfg smr.ShardedConfig) (*smr.ShardedCluster, error) {
	var err error
	f.sc, err = smr.BuildSharded(w, clients, servers, cfg)
	return f.sc, err
}

func (f *keyedFeed) submit(i int, c msgnet.ProcID, start, pace msgnet.Time) {
	f.sc.SubmitPaced(c, f.perClient[i], start, pace)
}

func (f *keyedFeed) verify(ctx context.Context, opts ...check.Option) (smr.HistoryCheck, error) {
	return f.sc.CheckLinearizable(ctx, opts...)
}

// runCluster is the one sharded-run pipeline, in order: workload, result
// header, network, protocol config, build, fault plan, staggered paced
// feed, run, stats, landed check, consistency, history check. A runner
// differs only in its clusterRun, so every ShardRunConfig field means
// the same to RunSharded, RunChaos and RunTxn. It also returns the
// finished cluster, from which E16 (fastpath.go) lifts the recorded
// per-key traces.
func runCluster(ctx context.Context, cfg ShardRunConfig, run clusterRun) (*smr.ShardedCluster, ShardRunResult, error) {
	cfg = cfg.withDefaults()
	run.feed.items(cfg)
	res := ShardRunResult{
		Shards:       cfg.Shards,
		Commands:     cfg.Commands,
		Distribution: "uniform",
		Online:       cfg.Online,
	}
	if cfg.ZipfS > 0 {
		res.Distribution = fmt.Sprintf("zipf(%.2g)", cfg.ZipfS)
	}

	w := msgnet.New(msgnet.Config{Seed: cfg.Seed, MinDelay: 1, MaxDelay: 2})
	clients := procIDs("c", cfg.Clients)
	proto := run.proto
	proto.FastPath, proto.QuorumTimeout, proto.Retransmit, proto.CompactEvery = true, 8, 6, cfg.CompactEvery
	sc, err := run.feed.build(w, clients, procIDs("s", cfg.Servers), smr.ShardedConfig{
		Config:       proto,
		Shards:       cfg.Shards,
		OnlineCheck:  cfg.Online,
		CheckBudget:  cfg.Budget,
		CheckContext: ctx,
		ExactCheck:   cfg.Exact,
	})
	if err != nil {
		return nil, res, err
	}
	sc.SetHooks(nil, run.land)
	if err := run.plan.Apply(w); err != nil {
		return sc, res, err
	}
	start := time.Now()
	for i, c := range clients {
		offset := msgnet.Time(0)
		if cfg.Pace > 0 {
			offset = msgnet.Time(i) * cfg.Pace / msgnet.Time(cfg.Clients)
		}
		run.feed.submit(i, c, offset, cfg.Pace)
	}
	end := sc.Run(1 << 40)
	wall := time.Since(start)
	res.ScheduleDigest = fmt.Sprintf("%016x", w.ScheduleDigest())

	st := sc.Stats()
	if st.Landed != st.Submitted {
		return sc, res, fmt.Errorf("landed %d of %d submitted commands", st.Landed, st.Submitted)
	}
	// Throughput counts workload items: a transaction is one item, however
	// many log entries its prepares and outcomes land.
	res.SimTime = int64(end)
	if end > 0 {
		res.CmdsPerDelay = float64(cfg.Commands) / float64(end)
	}
	res.MeanLatency = st.MeanLatency()
	res.FastPathRate = st.FastPathRate()
	res.SwitchesPerCmd = float64(st.Switches) / float64(st.Landed)
	res.WallMs = wallMs(wall)
	res.CmdsPerSecWall = float64(cfg.Commands) / wall.Seconds()
	if run.landed != nil {
		if err := run.landed(w, st); err != nil {
			return sc, res, err
		}
	}

	if err := sc.CheckConsistency(); err != nil {
		return sc, res, fmt.Errorf("consistency: %v", err)
	}
	res.Consistent = true
	if cfg.SkipCheck {
		return sc, res, nil
	}
	cstart := time.Now()
	sum, err := run.feed.verify(ctx, check.WithBudget(cfg.Budget))
	res.CheckWallMs = wallMs(time.Since(cstart) + sum.FeedWall)
	if err != nil {
		return sc, res, err
	}
	if sum.Ops != int64(cfg.Commands) {
		return sc, res, fmt.Errorf("checked %d ops of %d workload items", sum.Ops, cfg.Commands)
	}
	res.Linearizable = true
	res.KeyHistories = sum.Traces
	res.CheckedOps = sum.Ops
	res.CheckNodes = sum.Nodes
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
		errs = append(errs, verified(fmt.Sprintf("shards=%d %s", r.Shards, r.Distribution), r))
	}
	first, last := rows[0], rows[len(rows)-2] // the zipf row follows the uniform sweep
	want := 0.7 * float64(last.Shards) / float64(first.Shards)
	if got := last.CmdsPerDelay / first.CmdsPerDelay; got < want {
		errs = append(errs, fmt.Errorf("throughput scaled %.2fx from %d to %d shards (want ≥ %.2fx)",
			got, first.Shards, last.Shards, want))
	}
	return errors.Join(errs...)
}

// verified is the claim every row of E12, E15 and E19 makes: the run is
// linearizable and consistent, and every workload item was checked.
func verified(id string, r ShardRunResult) error {
	if !r.Linearizable || !r.Consistent {
		return fmt.Errorf("%s: linearizable=%v consistent=%v", id, r.Linearizable, r.Consistent)
	}
	if int64(r.Commands) != r.CheckedOps {
		return fmt.Errorf("%s: checked %d ops of %d workload items", id, r.CheckedOps, r.Commands)
	}
	return nil
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
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Commands),
			r.Distribution,
			fmt.Sprintf("%.3f", r.CmdsPerDelay),
			f2(r.CmdsPerDelay / base),
			pct(int(r.FastPathRate*1000), 1000),
			f2(r.MeanLatency),
			fmt.Sprintf("%d", r.KeyHistories),
			yesNo(r.Linearizable),
			yesNo(r.Consistent),
		})
	}
	err = checkShardRows(rows)
	if top := rows[len(rows)-2]; top.Commands < 1_000_000 {
		err = errors.Join(err, fmt.Errorf("E12: largest configuration landed %d commands (want ≥ 1,000,000)", top.Commands))
	}
	return t, err
}
