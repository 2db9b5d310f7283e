package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/msgnet"
	"repro/internal/smr"
	"repro/internal/workload"
)

// This file implements the E19 transaction sweep, the cross-shard
// atomic-transaction experiment. One run drives a zipf-contended mixed
// workload — single-key operations plus multi-key MultiPut/MultiGet/CAS
// transactions — through a TxnCluster (2PC layered on the per-shard
// speculative logs, DESIGN.md decision 18), optionally under rolling
// coordinator crash–restarts, then verifies per-shard log agreement,
// every fast-path key's register history, and every txn-connected
// component's merged history against the adt.TxnKV product folder.

// TxnRunConfig parameterizes one mixed transactional run. The embedded
// ShardRunConfig fields keep their E12 meanings (Commands counts
// workload items — a transaction is one item).
type TxnRunConfig struct {
	ShardRunConfig
	// TxnFrac is the fraction of workload items that are multi-key
	// transactions (workload.MixedOpts.TxnFrac).
	TxnFrac float64
	// TxnKeysMax bounds the keys per transaction (default 4).
	TxnKeysMax int
	// TxnKeys restricts transaction key draws to the first TxnKeys keys
	// (default all): keys beyond the range stay on the register fast
	// path.
	TxnKeys int
	// Groups partitions the transactional key range into key-groups,
	// bounding txn-connected component sizes (workload.MixedOpts.Groups).
	Groups int
	// ReadTxnFrac and CASFrac split transactions into MultiGets, CAS
	// read-modify-writes, and MultiPuts (workload defaults 0.3/0.3).
	ReadTxnFrac float64
	CASFrac     float64
	// RecoveryTimeout arms the transaction recovery watchdog
	// (smr.TxnConfig.RecoveryTimeout); zero disables it.
	RecoveryTimeout msgnet.Time
	// CoordinatorCrashes injects rolling crash–restarts across every
	// client (each transaction coordinator crashes mid-run and restarts,
	// staggered): CrashStart/CrashEvery/CrashDown parameterize
	// faults.RollingRestart.
	CoordinatorCrashes bool
	CrashStart         msgnet.Time
	CrashEvery         msgnet.Time
	CrashDown          msgnet.Time
}

func (c TxnRunConfig) withDefaults() TxnRunConfig {
	c.ShardRunConfig = c.ShardRunConfig.withDefaults()
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 2000
	}
	if c.CrashStart <= 0 {
		c.CrashStart = 200
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 400
	}
	if c.CrashDown <= 0 {
		c.CrashDown = 150
	}
	return c
}

// TxnRunResult reports one mixed transactional run. The embedded
// ShardRunResult carries the throughput, latency, and schedule-digest
// fields exactly as E12 records them (CheckedOps counts workload items:
// each single-key operation and each composite transaction once).
type TxnRunResult struct {
	ShardRunResult
	TxnFrac            float64 `json:"txn_frac"`
	CoordinatorCrashes bool    `json:"coordinator_crashes"`

	TxnsStarted      int64   `json:"txns_started"`
	TxnsCommitted    int64   `json:"txns_committed"`
	AbortedConflict  int64   `json:"txns_aborted_conflict"`
	AbortedCondition int64   `json:"txns_aborted_condition"`
	AbortedRecovery  int64   `json:"txns_aborted_recovery"`
	CommitRate       float64 `json:"commit_rate"`

	// Components is the number of txn-connected components, each checked
	// as one merged multi-key history over adt.TxnKV; FastPathKeys counts
	// keys that stayed on the per-key register fast path.
	Components       int   `json:"components"`
	ComponentOps     int64 `json:"component_ops"`
	LargestComponent int64 `json:"largest_component_ops"`
	ComponentKeys    int   `json:"component_keys"`
	FastPathKeys     int   `json:"fast_path_keys"`
}

// txnOf converts a generated workload transaction to the SMR layer's
// form; the workload encodes "expect unset" as the empty string.
func txnOf(s *workload.TxnSpec) *smr.Txn {
	ops := make([]smr.TxnOp, len(s.Ops))
	for i, o := range s.Ops {
		switch {
		case o.Read:
			ops[i] = smr.TxnOp{Kind: smr.TxnRead, Key: o.Key}
		case o.CAS:
			exp := o.Expect
			if exp == "" {
				exp = string(adt.Bottom)
			}
			ops[i] = smr.TxnOp{Kind: smr.TxnCAS, Key: o.Key, Value: o.Value, Expect: exp}
		default:
			ops[i] = smr.TxnOp{Kind: smr.TxnWrite, Key: o.Key, Value: o.Value}
		}
	}
	return &smr.Txn{ID: s.ID, Ops: ops}
}

// RunTxn executes one mixed transactional run through runCluster and
// verifies it: every submission lands, every transaction resolves, logs
// agree per shard, and every history — fast-path register and merged
// component alike — is linearizable.
func RunTxn(ctx context.Context, cfg TxnRunConfig) (TxnRunResult, error) {
	cfg = cfg.withDefaults()
	res := TxnRunResult{TxnFrac: cfg.TxnFrac, CoordinatorCrashes: cfg.CoordinatorCrashes}
	f := &txnFeed{cfg: cfg}
	run := clusterRun{
		feed:  f,
		proto: smr.Config{RetryTimeout: 60, Recovery: true},
		landed: func(*msgnet.Network, smr.ShardedStats) error {
			ts := f.tc.TxnStats()
			if ts.Resolved() != ts.Started {
				return fmt.Errorf("resolved %d of %d transactions (pending: %v)",
					ts.Resolved(), ts.Started, f.tc.PendingTxns())
			}
			if n := f.tc.UnresolvedShards(); n != 0 {
				return fmt.Errorf("%d unresolved (txn, shard) pairs", n)
			}
			res.TxnsStarted = ts.Started
			res.TxnsCommitted = ts.Committed
			res.AbortedConflict = ts.AbortedConflict
			res.AbortedCondition = ts.AbortedCondition
			res.AbortedRecovery = ts.AbortedRecovery
			res.CommitRate = ts.CommitRate()
			return nil
		},
	}
	if cfg.CoordinatorCrashes {
		run.plan.Crashes = faults.RollingRestart(procIDs("c", cfg.Clients), cfg.CrashStart, cfg.CrashEvery, cfg.CrashDown)
	}
	var err error
	if _, res.ShardRunResult, err = runCluster(ctx, cfg.ShardRunConfig, run); err == nil && !cfg.SkipCheck {
		res.Components = f.sum.Components
		res.ComponentOps = f.sum.ComponentOps
		res.LargestComponent = f.sum.LargestComponent
		res.ComponentKeys = f.sum.ComponentKeys
		res.FastPathKeys = f.sum.FastPathKeys
	}
	return res, err
}

// txnFeed is the mixed workload — single-key operations and multi-key
// transactions — paced one item a step into a TxnCluster, whose check
// adds the txn-connected components.
type txnFeed struct {
	cfg       TxnRunConfig
	tc        *smr.TxnCluster
	perClient [][]smr.MixedItem
	sum       smr.TxnCheck
}

func (f *txnFeed) items(cfg ShardRunConfig) {
	ops := workload.Mixed(rand.New(rand.NewSource(cfg.Seed)), workload.MixedOpts{
		KeyedOpts:   keyedOpts(cfg),
		TxnFrac:     f.cfg.TxnFrac,
		TxnKeysMax:  f.cfg.TxnKeysMax,
		TxnKeys:     f.cfg.TxnKeys,
		Groups:      f.cfg.Groups,
		ReadTxnFrac: f.cfg.ReadTxnFrac,
		CASFrac:     f.cfg.CASFrac,
	})
	f.perClient = make([][]smr.MixedItem, cfg.Clients)
	for _, op := range ops {
		var it smr.MixedItem
		switch {
		case op.Txn != nil:
			it.Txn = txnOf(op.Txn)
		case op.Read:
			it.Cmd = smr.GetCmd(op.Key, op.Value)
		default:
			it.Cmd = smr.SetCmd(op.Key, op.Value)
		}
		f.perClient[op.Client] = append(f.perClient[op.Client], it)
	}
}

func (f *txnFeed) build(w *msgnet.Network, clients, servers []msgnet.ProcID, cfg smr.ShardedConfig) (*smr.ShardedCluster, error) {
	tc, err := smr.BuildTxn(w, clients, servers, cfg, smr.TxnConfig{RecoveryTimeout: f.cfg.RecoveryTimeout})
	if err != nil {
		return nil, err
	}
	f.tc = tc
	return tc.ShardedCluster, nil
}

func (f *txnFeed) submit(i int, c msgnet.ProcID, start, pace msgnet.Time) {
	f.tc.SubmitMixedPaced(c, f.perClient[i], start, pace)
}

func (f *txnFeed) verify(ctx context.Context, opts ...check.Option) (smr.HistoryCheck, error) {
	var err error
	f.sum, err = f.tc.CheckTxnLinearizable(ctx, opts...)
	return f.sum.HistoryCheck, err
}

// E19Base is the canonical E19 configuration: 6 clients paced open-loop
// over 8 shards, 3 servers, zipf(1.2)-skewed keys, transactions drawn
// from the first 64 of 256 keys in 16 key-groups, online component
// checking, compaction on.
var E19Base = TxnRunConfig{
	ShardRunConfig: ShardRunConfig{
		Shards:       8,
		Clients:      6,
		Servers:      3,
		Keys:         256,
		ReadFrac:     0.4,
		ZipfS:        1.2,
		Pace:         12,
		Seed:         1,
		CompactEvery: 64,
		Online:       true,
	},
	TxnKeys:         64,
	Groups:          16,
	RecoveryTimeout: 2000,
}

// E19 canonical scales: the sweep rows and the full-scale acceptance
// row (100k+ workload items, 8 shards, 20% transactions, rolling
// coordinator crash–restarts).
const (
	E19SweepCommands = 25_000
	E19FullCommands  = 100_000
	E19SmokeCommands = 2_000
)

// E19TxnFracs is the transaction-fraction sweep.
var E19TxnFracs = []float64{0.05, 0.2}

// E19Rows builds the E19 result set: the txn-frac × contention sweep
// (uniform and zipf(1.2) keys) at sweepCommands items each, then the
// full-scale faulted row — fullCommands items, 20% transactions, rolling
// coordinator crash–restarts with the recovery watchdog armed.
func E19Rows(ctx context.Context, sweepCommands, fullCommands int) ([]TxnRunResult, error) {
	var out []TxnRunResult
	for _, zipf := range []float64{0, 1.2} {
		for _, frac := range E19TxnFracs {
			cfg := E19Base
			cfg.Commands = sweepCommands
			cfg.ZipfS = zipf
			cfg.TxnFrac = frac
			r, err := RunTxn(ctx, cfg)
			if err != nil {
				return out, fmt.Errorf("E19 zipf=%v frac=%v: %w", zipf, frac, err)
			}
			out = append(out, r)
		}
	}
	full := E19Base
	full.Commands = fullCommands
	full.TxnFrac = 0.2
	full.CoordinatorCrashes = true
	full.RecoveryTimeout = 500
	// Stagger the rolling restarts across the whole run (simulated time
	// is about 2× the item count at pace 12), not just its opening
	// seconds, so mid-run transactions get orphaned too. A coordinator
	// stays down longer than the watchdog: one that restarts sooner
	// re-drives its prepares in time, as its slots wait for it
	// (DESIGN.md decision 30), so only a longer outage orphans a
	// transaction.
	full.CrashStart = 500
	full.CrashEvery = msgnet.Time(2 * fullCommands / full.Clients)
	full.CrashDown = 600
	r, err := RunTxn(ctx, full)
	if err != nil {
		return out, fmt.Errorf("E19 faulted: %w", err)
	}
	return append(out, r), nil
}

// checkTxnRows is the E19 shape at any scale: every workload item was
// checked and its history is linearizable, logs agree, every row both
// commits transactions and keeps keys on the fast path, and the last
// (faulted) row actually orphaned transactions into recovery aborts.
func checkTxnRows(rows []TxnRunResult) error {
	var errs []error
	for _, r := range rows {
		id := fmt.Sprintf("frac=%.2f %s faults=%v", r.TxnFrac, r.Distribution, r.CoordinatorCrashes)
		errs = append(errs, verified(id, r.ShardRunResult))
		if r.TxnsStarted == 0 || r.TxnsCommitted == 0 {
			errs = append(errs, fmt.Errorf("%s: %d transactions started, %d committed — row exercises nothing",
				id, r.TxnsStarted, r.TxnsCommitted))
		}
		if r.Components == 0 || r.FastPathKeys == 0 {
			errs = append(errs, fmt.Errorf("%s: components=%d fast-path keys=%d — want both merged components and fast-path keys",
				id, r.Components, r.FastPathKeys))
		}
	}
	faulted := rows[len(rows)-1]
	if !faulted.CoordinatorCrashes {
		errs = append(errs, errors.New("last row is not the faulted row"))
	} else if faulted.AbortedRecovery == 0 {
		errs = append(errs, errors.New("faulted row: no recovery aborts — coordinator crashes never orphaned a transaction"))
	}
	return errors.Join(errs...)
}

// E19TxnSweep: the cross-shard transaction claim — 2PC layered on the
// per-shard speculative logs keeps every submission landing and every
// transaction resolving (commit, conflict/condition abort, or recovery
// abort) under contention and coordinator crash–restarts, while every
// txn-connected component's merged history checks linearizable against
// the adt.TxnKV product folder and untouched keys stay on the register
// fast path. The run fails if the shape (checkTxnRows) does not hold at
// full scale or the faulted row lands fewer than 100,000 items.
func E19TxnSweep(ctx context.Context) (Table, error) {
	t := Table{
		ID: "E19",
		Title: "cross-shard transaction sweep (8 shards, 6 clients, 3 servers, " +
			"paced open-loop mixed KV, seed 1)",
		Header: []string{"commands", "dist", "txn-frac", "faults", "commit rate",
			"aborts (cfl/cnd/rcv)", "components", "largest", "fast-path keys", "lin", "consistent"},
		Notes: []string{
			"Transactions are MultiPut/MultiGet/CAS over 2–4 keys drawn within one of 16 " +
				"key-groups of the 64-key transactional range; the remaining 192 keys only ever " +
				"see single-key traffic. Each txn-connected component is checked as one merged " +
				"history over adt.TxnKV (streamed online through incremental sessions); the " +
				"faulted row crashes and restarts every coordinator on a rolling schedule with " +
				"the recovery watchdog armed.",
		},
	}
	rows, err := E19Rows(ctx, E19SweepCommands, E19FullCommands)
	if err != nil {
		return t, err
	}
	for _, r := range rows {
		faulted := "none"
		if r.CoordinatorCrashes {
			faulted = "rolling coord crash"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Commands),
			r.Distribution,
			fmt.Sprintf("%.2f", r.TxnFrac),
			faulted,
			f2(r.CommitRate),
			fmt.Sprintf("%d/%d/%d", r.AbortedConflict, r.AbortedCondition, r.AbortedRecovery),
			fmt.Sprintf("%d", r.Components),
			fmt.Sprintf("%d", r.LargestComponent),
			fmt.Sprintf("%d", r.FastPathKeys),
			yesNo(r.Linearizable),
			yesNo(r.Consistent),
		})
	}
	err = checkTxnRows(rows)
	if faulted := rows[len(rows)-1]; faulted.Commands < 100_000 {
		err = errors.Join(err, fmt.Errorf("E19: full-scale row landed %d workload items (want ≥ 100,000)", faulted.Commands))
	}
	return t, err
}
