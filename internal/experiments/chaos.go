package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/msgnet"
	"repro/internal/smr"
)

// This file implements the E15 chaos experiment: the sharded SMR
// cluster under a compound fault plan — rolling server restarts with
// durable-snapshot recovery, a partition isolating one server for ~30%
// of the feed (briefly compounding with a crash into a total majority
// blackout), and message-duplicating links — with online
// linearizability checking on throughout. The windowed fast-path rate
// shows graceful degradation while the faults are active and recovery
// after they heal; client retries carry submissions across the blackout
// exactly once.

// ChaosConfig parameterizes one chaos run. The embedded ShardRunConfig
// carries the workload and cluster knobs (E12's); the chaos fields arm
// the fault machinery. The machinery is armed even with Faults off —
// recovery modeled, retry timers set on every attempt — which is what
// the plan-free parity tests rely on: arming alone must not perturb the
// schedule.
type ChaosConfig struct {
	ShardRunConfig
	// RetryTimeout bounds each submission attempt (smr.Config.RetryTimeout);
	// 0 defaults to 400 delays — far above fault-free latencies, so
	// retries fire only under real faults.
	RetryTimeout msgnet.Time
	// Faults injects the canonical chaos plan (ChaosPlan). Off runs the
	// same armed harness fault-free (the baseline row).
	Faults bool
	// DupProb is the duplication probability of the faulty client↔server
	// links; 0 defaults to 0.05.
	DupProb float64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	c.ShardRunConfig = c.ShardRunConfig.withDefaults()
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 400
	}
	if c.DupProb == 0 {
		c.DupProb = 0.05
	}
	return c
}

// feedSpan estimates the paced feed's duration: the length of one
// (client, shard) stream times the pace. Fault times scale off it so one
// plan shape covers every run size.
func (c ChaosConfig) feedSpan() msgnet.Time {
	if c.Pace <= 0 {
		return 1
	}
	return msgnet.Time(c.Commands/(c.Clients*c.Shards)) * c.Pace
}

// ChaosResult reports one chaos run. It embeds the standard
// sharded-run metrics and adds the fault story: per-phase fast-path
// rates and the time the cluster took to regain the fast path after the
// faults healed.
type ChaosResult struct {
	ShardRunResult
	FaultsInjected bool  `json:"faults_injected"`
	Retries        int64 `json:"retries"`
	DuplicatedMsgs int64 `json:"duplicated_messages"`
	// FaultStart and HealAt delimit the plan's active period (virtual
	// time); the windowed rates below split on them.
	FaultStart int64 `json:"fault_start_delays"`
	HealAt     int64 `json:"heal_delays"`
	// Fast-path rates before the first fault, while faults are active,
	// and after every fault healed.
	FastPathBefore float64 `json:"fast_path_before"`
	FastPathDuring float64 `json:"fast_path_during"`
	FastPathAfter  float64 `json:"fast_path_after"`
	// TimeToRecover is the delay between the heal and the end of the
	// first post-heal window whose fast-path rate reached 90% of the
	// pre-fault rate (-1: never recovered; 0 with Faults off).
	TimeToRecover int64 `json:"time_to_recover_delays"`
}

// ChaosPlan builds the canonical E15 fault schedule over one feed span:
//
//   - message duplication (dupProb) on every client↔server link for the
//     whole run;
//   - rolling server restarts at 20%, 35% and 50% of the span, each
//     5% long, in an order chosen so the last crash overlaps the
//     partition below (a brief total loss of the server majority — the
//     client retry path's stress window);
//   - a partition isolating the last server from everyone else over
//     [45%, 75%) of the span, ~30% of the feed.
func ChaosPlan(clients, servers []msgnet.ProcID, span msgnet.Time, dupProb float64) faults.Plan {
	var p faults.Plan
	dup := msgnet.LinkRule{DupProb: dupProb}
	for _, c := range clients {
		for _, s := range servers {
			p.Links = append(p.Links,
				faults.LinkFault{From: c, To: s, Rule: dup},
				faults.LinkFault{From: s, To: c, Rule: dup})
		}
	}
	// Restart order s1, s2, ..., s0: the first server's downtime lands at
	// 50-55% of the span, inside the partition window, so the cluster
	// briefly has no reachable majority.
	order := append(append([]msgnet.ProcID{}, servers[1:]...), servers[0])
	p.Crashes = faults.RollingRestart(order, span/5, span*3/20, span/20)
	rest := append(append([]msgnet.ProcID{}, clients...), servers[:len(servers)-1]...)
	p.Partitions = []faults.Partition{
		faults.Split(rest, servers[len(servers)-1:], span*9/20, span*3/4),
	}
	return p
}

// RunChaos executes one chaos run and verifies it. It runs through
// runCluster like RunSharded, adding only the protocol arming, the
// landing windows and the fault plan, so a run with Faults off replays
// the fault-free baseline schedule event for event (compare
// ScheduleDigest against RunSharded's). The windows are 1/32 of the feed
// span wide; a run whose windows do not sum to the cluster's landed and
// fast-path counts fails.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	span := cfg.feedSpan()
	faultStart, heal := span/5, span*3/4
	res := ChaosResult{
		FaultsInjected: cfg.Faults,
		FaultStart:     int64(faultStart),
		HealAt:         int64(heal),
	}
	win := &windows{every: max(span/32, 1)}
	run := clusterRun{
		feed:  &keyedFeed{},
		proto: smr.Config{Recovery: true, RetryTimeout: cfg.RetryTimeout},
		land:  win.land,
		landed: func(w *msgnet.Network, st smr.ShardedStats) error {
			if landed, fast := win.sums(); landed != st.Landed || fast != st.FastPath {
				return fmt.Errorf("windows sum to %d landed, %d fast; the cluster counts %d, %d",
					landed, fast, st.Landed, st.FastPath)
			}
			res.DuplicatedMsgs = w.Duplicated()
			res.Retries = st.Retries
			res.FastPathBefore, res.FastPathDuring, res.FastPathAfter, res.TimeToRecover =
				win.phases(faultStart, heal)
			if !cfg.Faults {
				res.TimeToRecover = 0
			}
			return nil
		},
	}
	if cfg.Faults {
		run.plan = ChaosPlan(procIDs("c", cfg.Clients), procIDs("s", cfg.Servers), span, cfg.DupProb)
	}
	var err error
	_, res.ShardRunResult, err = runCluster(ctx, cfg.ShardRunConfig, run)
	return res, err
}

// windows buckets a run's landings by landing time into virtual-time
// windows of width every, the i-th covering [i*every, (i+1)*every): the
// fast-path rate per window shows degradation and recovery around the
// faults.
type windows struct {
	every msgnet.Time
	ws    []window
}

// window counts the submissions that landed in one window, and those of
// them that never left the fast path (no switch, no retry).
type window struct{ landed, fast int64 }

// land is the cluster's landing observer (smr.ShardedCluster.SetHooks).
func (w *windows) land(r smr.SubmitResult) {
	i := int(r.End / w.every)
	for len(w.ws) <= i {
		w.ws = append(w.ws, window{})
	}
	w.ws[i].landed++
	if r.Switches == 0 && r.Retries == 0 {
		w.ws[i].fast++
	}
}

// sums totals the windows.
func (w *windows) sums() (landed, fast int64) {
	for _, b := range w.ws {
		landed += b.landed
		fast += b.fast
	}
	return landed, fast
}

// phases splits the windows on the fault plan's active period and
// computes the per-phase fast-path rates plus the time to recover: the
// delay from the heal to the end of the first post-heal window whose
// rate reached 90% of the pre-fault rate (-1 if none did).
func (w *windows) phases(faultStart, heal msgnet.Time) (before, during, after float64, ttr int64) {
	var bl, bf, dl, df, al, af int64
	for i, b := range w.ws {
		switch start := msgnet.Time(i) * w.every; {
		case start+w.every <= faultStart:
			bl += b.landed
			bf += b.fast
		case start >= heal:
			al += b.landed
			af += b.fast
		default:
			dl += b.landed
			df += b.fast
		}
	}
	rate := func(fast, landed int64) float64 {
		if landed == 0 {
			return 0
		}
		return float64(fast) / float64(landed)
	}
	before, during, after = rate(bf, bl), rate(df, dl), rate(af, al)
	for i, b := range w.ws {
		if start := msgnet.Time(i) * w.every; start >= heal && b.landed > 0 && rate(b.fast, b.landed) >= 0.9*before {
			return before, during, after, int64(start + w.every - heal)
		}
	}
	return before, during, after, -1
}

// E15Base is the canonical E15 configuration: the E12 cluster knobs at
// 16 shards with online checking on, 12,500 commands per shard, and the
// default chaos arming.
var E15Base = ChaosConfig{
	ShardRunConfig: ShardRunConfig{
		Shards:       16,
		Commands:     200_000,
		Clients:      4,
		Servers:      3,
		Pace:         12,
		ReadFrac:     0.3,
		Seed:         1,
		CompactEvery: 64,
		Online:       true,
	},
}

// E15Rows builds the E15 result pair — the fault-free baseline on the
// armed harness, then the chaos run — at the given scale: the E15 table
// runs it at full scale, TestE15Shape scaled down.
func E15Rows(ctx context.Context, shards, commands int) ([]ChaosResult, error) {
	cfg := E15Base
	cfg.Shards = shards
	cfg.Commands = commands
	baseline, err := RunChaos(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("E15 baseline: %w", err)
	}
	cfg.Faults = true
	chaos, err := RunChaos(ctx, cfg)
	if err != nil {
		return []ChaosResult{baseline}, fmt.Errorf("E15 chaos: %w", err)
	}
	return []ChaosResult{baseline, chaos}, nil
}

// checkChaosRows is the E15 shape at any scale: both runs check every
// landed command linearizable and consistent, the fault-free baseline
// never retries, and the chaos run exercises retries and duplicates,
// loses fast-path share while the faults are active and regains it
// after the heal.
func checkChaosRows(rows []ChaosResult) error {
	if len(rows) != 2 || rows[0].FaultsInjected || !rows[1].FaultsInjected {
		return fmt.Errorf("E15 returned %d rows, want baseline + chaos", len(rows))
	}
	baseline, chaos := rows[0], rows[1]
	errs := []error{verified("baseline", baseline.ShardRunResult), verified("chaos", chaos.ShardRunResult)}
	if baseline.Retries != 0 {
		errs = append(errs, fmt.Errorf("fault-free baseline retried %d times", baseline.Retries))
	}
	if chaos.Retries == 0 {
		errs = append(errs, errors.New("chaos: the majority blackout forced no retries"))
	}
	if chaos.DuplicatedMsgs == 0 {
		errs = append(errs, errors.New("chaos: duplicating links produced no duplicates"))
	}
	if chaos.FastPathDuring >= chaos.FastPathBefore {
		errs = append(errs, fmt.Errorf("chaos: fast path did not degrade (before %.3f, during %.3f)",
			chaos.FastPathBefore, chaos.FastPathDuring))
	}
	if chaos.TimeToRecover < 0 {
		errs = append(errs, fmt.Errorf("chaos: fast path never recovered after the heal (before %.3f, after %.3f)",
			chaos.FastPathBefore, chaos.FastPathAfter))
	}
	return errors.Join(errs...)
}

// E15ChaosRecovery: the robustness claim — under rolling crash–recovery
// restarts, a 30%-of-the-run partition (briefly compounding into a total
// majority blackout) and duplicating links, the sharded cluster stays
// linearizable and consistent, degrades gracefully to the robust path,
// carries every submission exactly once through the retry machinery, and
// regains the fast path after the faults heal. The run fails if that
// shape (checkChaosRows) does not hold at full scale.
func E15ChaosRecovery(ctx context.Context) (Table, error) {
	t := Table{
		ID: "E15",
		Title: "chaos: rolling restarts + partition + duplicating links " +
			"(16 shards, 4 clients, 3 servers, online check on, seed 1)",
		Header: []string{"mode", "commands", "fast-path", "before", "during", "after",
			"recover (delays)", "retries", "dup msgs", "lin", "consistent"},
		Notes: []string{
			"Faults span 20–75% of the feed: rolling server restarts (durable-snapshot " +
				"recovery), a partition isolating one server for 30% of the feed — " +
				"overlapping one crash into a brief total majority blackout — and 5% " +
				"message duplication on every client↔server link throughout. Retried " +
				"submissions re-propose with capped exponential backoff and land exactly " +
				"once (verified online); 'recover' is the delay from the heal to the first " +
				"window back at ≥90% of the pre-fault fast-path rate. The baseline row runs " +
				"the same armed harness fault-free and reproduces the plain sharded " +
				"schedule digest.",
		},
	}
	rows, err := E15Rows(ctx, E15Base.Shards, E15Base.Commands)
	if err != nil {
		return t, err
	}
	for _, r := range rows {
		mode := "baseline"
		if r.FaultsInjected {
			mode = "chaos"
		}
		recover := fmt.Sprintf("%d", r.TimeToRecover)
		if r.TimeToRecover < 0 {
			recover = "never"
		}
		t.Rows = append(t.Rows, []string{
			mode,
			fmt.Sprintf("%d", r.Commands),
			pct(int(r.FastPathRate*1000), 1000),
			pct(int(r.FastPathBefore*1000), 1000),
			pct(int(r.FastPathDuring*1000), 1000),
			pct(int(r.FastPathAfter*1000), 1000),
			recover,
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.DuplicatedMsgs),
			yesNo(r.Linearizable),
			yesNo(r.Consistent),
		})
	}
	return t, checkChaosRows(rows)
}
