package experiments

import (
	"context"
	"reflect"
	"testing"
)

// chaosSmall is a fast E15-shaped configuration for unit tests. The
// command count is chosen so the scaled-down blackout window still
// catches in-flight submissions: the decision-17 watermark gossip adds
// client↔client traffic that shifts the seeded schedule, and at 8k
// commands the blackout happened to force no retries.
func chaosSmall() ChaosConfig {
	cfg := E15Base
	cfg.Shards = 4
	cfg.Commands = 12_000
	return cfg
}

// A plan-free chaos run — recovery modeled, retry timers armed on every
// attempt, landings bucketed into windows — must reproduce the plain
// sharded baseline's schedule event for event. This pins the chaos
// harness to the E12 baseline: arming the fault machinery is free.
func TestChaosPlanFreeMatchesShardedBaseline(t *testing.T) {
	ctx := context.Background()
	cfg := chaosSmall()
	base := ShardRunConfig{
		Shards:       cfg.Shards,
		Commands:     cfg.Commands,
		Clients:      cfg.Clients,
		Servers:      cfg.Servers,
		ReadFrac:     cfg.ReadFrac,
		Pace:         cfg.Pace,
		Seed:         cfg.Seed,
		CompactEvery: cfg.CompactEvery,
		Online:       cfg.Online,
	}
	plain, err := RunSharded(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ScheduleDigest != armed.ScheduleDigest {
		t.Errorf("schedules differ: sharded %s, plan-free chaos %s",
			plain.ScheduleDigest, armed.ScheduleDigest)
	}
	if plain.SimTime != armed.SimTime {
		t.Errorf("sim time differs: %d vs %d", plain.SimTime, armed.SimTime)
	}
	if plain.FastPathRate != armed.FastPathRate || plain.MeanLatency != armed.MeanLatency {
		t.Errorf("stats differ: fast-path %v vs %v, latency %v vs %v",
			plain.FastPathRate, armed.FastPathRate, plain.MeanLatency, armed.MeanLatency)
	}
	if plain.KeyHistories != armed.KeyHistories || plain.CheckedOps != armed.CheckedOps {
		t.Errorf("check coverage differs: %d/%d vs %d/%d histories/ops",
			plain.KeyHistories, plain.CheckedOps, armed.KeyHistories, armed.CheckedOps)
	}
	if armed.Retries != 0 {
		t.Errorf("plan-free run retried %d times", armed.Retries)
	}
}

// Identical seed and configuration must reproduce the chaos run bit for
// bit (wall-clock fields aside).
func TestChaosRunDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := chaosSmall()
	cfg.Faults = true
	a, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.WallMs, b.WallMs = 0, 0
	a.CmdsPerSecWall, b.CmdsPerSecWall = 0, 0
	a.CheckWallMs, b.CheckWallMs = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different chaos runs:\n%+v\n%+v", a, b)
	}
}

// The chaos run's headline claims at test scale: linearizable and
// consistent under the full fault plan, retries and duplicates actually
// exercised, the fast path degraded while faults were active, and
// recovered after the heal. RunChaos fails unless its windows sum to the
// cluster's landed and fast-path counts, retried landings included.
func TestChaosRunRecovers(t *testing.T) {
	cfg := chaosSmall()
	cfg.Faults = true
	r, err := RunChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Linearizable || !r.Consistent {
		t.Fatalf("chaos run: linearizable=%v consistent=%v", r.Linearizable, r.Consistent)
	}
	if r.Retries == 0 {
		t.Error("the majority blackout forced no retries")
	}
	if r.DuplicatedMsgs == 0 {
		t.Error("duplicating links produced no duplicates")
	}
	if r.FastPathDuring >= r.FastPathBefore {
		t.Errorf("fast path did not degrade: before %.3f, during %.3f",
			r.FastPathBefore, r.FastPathDuring)
	}
	if r.TimeToRecover < 0 {
		t.Errorf("fast path never recovered after the heal: before %.3f, after %.3f",
			r.FastPathBefore, r.FastPathAfter)
	}
	t.Logf("fast-path before/during/after = %.3f/%.3f/%.3f, recover %d delays, %d retries, %d dups",
		r.FastPathBefore, r.FastPathDuring, r.FastPathAfter, r.TimeToRecover, r.Retries, r.DuplicatedMsgs)
}

// Exact reaches the chaos run's online sessions as it reaches
// RunSharded's: with it set they spend exact-engine nodes (the register
// fast path spends one node a fed action, two an operation), the
// schedule does not move, and the verdicts agree with the fast path's.
func TestChaosHonoursExact(t *testing.T) {
	ctx := context.Background()
	cfg := chaosSmall()
	cfg.Faults = true
	fast, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exact = true
	exact, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.CheckNodes != 2*fast.CheckedOps {
		t.Errorf("fast path: %d nodes for %d ops, want two an op", fast.CheckNodes, fast.CheckedOps)
	}
	if exact.CheckNodes == fast.CheckNodes {
		t.Errorf("Exact set, yet %d nodes for %d ops: the sessions ran the fast path", exact.CheckNodes, exact.CheckedOps)
	}
	if exact.ScheduleDigest != fast.ScheduleDigest || exact.Linearizable != fast.Linearizable ||
		exact.KeyHistories != fast.KeyHistories || exact.CheckedOps != fast.CheckedOps {
		t.Errorf("exact and fast runs differ: %s/%v/%d/%d vs %s/%v/%d/%d (digest/lin/histories/ops)",
			exact.ScheduleDigest, exact.Linearizable, exact.KeyHistories, exact.CheckedOps,
			fast.ScheduleDigest, fast.Linearizable, fast.KeyHistories, fast.CheckedOps)
	}
	t.Logf("%d ops: %d exact nodes, %d fast", exact.CheckedOps, exact.CheckNodes, fast.CheckNodes)
}
