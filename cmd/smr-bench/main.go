// Command smr-bench drives the sharded SMR cluster: a keyed KV workload
// (uniform or zipf-skewed keys) hash-partitioned across N independent
// speculative replicated logs sharing one simulated network, with
// per-shard log agreement and per-key linearizability checked after the
// run (experiment E12).
//
// Usage:
//
//	smr-bench                          # one run with the defaults
//	smr-bench -shards 8 -commands 500000
//	smr-bench -sweep 1,2,4,8,16 -per-shard 62500 -json sweep.json
//	smr-bench -zipf 1.2 -read-frac 0.5 -pace 0   # skewed, closed-loop
//	smr-bench -online                  # check per-key histories during the run
//	smr-bench -online -exact           # ... with the exact frontier engine
//	                                   # (default: register fast path, E16)
//	smr-bench -faults -online          # E15 chaos plan: rolling restarts,
//	                                   # partition, duplicating links
//	smr-bench -txn-frac 0.2 -online    # mixed workload with multi-key
//	                                   # transactions, component checking (E19)
//	smr-bench -txn-frac 0.2 -txn-faults -zipf 1.2   # ... under rolling
//	                                   # coordinator crash–restarts
//	smr-bench -online -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                                   # profiles for `go tool pprof`
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/msgnet"
	"repro/internal/profile"
)

func main() {
	var (
		shards   = flag.Int("shards", 4, "number of shards (independent replicated logs)")
		commands = flag.Int("commands", 100_000, "total commands (single run)")
		sweep    = flag.String("sweep", "", "comma-separated shard counts; runs a weak-scaling sweep instead of a single run")
		perShard = flag.Int("per-shard", 62_500, "commands per shard in sweep mode")
		clients  = flag.Int("clients", 4, "client processes")
		servers  = flag.Int("servers", 3, "server processes")
		keys     = flag.Int("keys", 0, "distinct keys (0: commands/64)")
		readFrac = flag.Float64("read-frac", 0.3, "fraction of reads (negative: pure-write)")
		zipf     = flag.Float64("zipf", 0, "zipf key-skew exponent (must be > 1); 0 = uniform")
		pace     = flag.Int64("pace", 12, "per-client feed period in message delays (0: closed-loop burst at t=0)")
		seed     = flag.Int64("seed", 1, "workload and network seed")
		compact  = flag.Int("compact-every", 64, "log compaction window (0: off)")
		budget   = flag.Int("budget", 0, "check search nodes per fed action (0: checker default)")
		noCheck  = flag.Bool("skip-check", false, "skip the per-key linearizability check")
		online   = flag.Bool("online", false, "stream per-key histories through incremental checker sessions during the run")
		exact    = flag.Bool("exact", false, "force the exact frontier engine on the online checker sessions (default: register fast path)")
		inject   = flag.Bool("faults", false, "inject the E15 chaos plan (rolling crash–recovery restarts, partition, duplicating links) and report fault metrics")
		retryTO  = flag.Int64("retry-timeout", 0, "client per-command retry timeout in delays with -faults (0: default 400)")
		dupProb  = flag.Float64("dup-prob", 0, "duplication probability of the faulty links with -faults (0: default 0.05)")
		timeout  = flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
		jsonOut  = flag.String("json", "", "write results as JSON to this file")

		txnFrac    = flag.Float64("txn-frac", 0, "fraction of items that are multi-key transactions; > 0 selects the mixed transactional run (E19)")
		txnKeysMax = flag.Int("txn-keys-max", 0, "max keys per transaction (0: default 4)")
		txnKeys    = flag.Int("txn-keys", 0, "transactional key range: txns draw from the first N keys (0: all keys)")
		txnGroups  = flag.Int("txn-groups", 0, "key-groups partitioning the transactional range (0: one group)")
		casFrac    = flag.Float64("cas-frac", 0, "fraction of transactions that are CAS read-modify-writes (0: default 0.3; negative: none)")
		recoveryTO = flag.Int64("recovery-timeout", 0, "transaction recovery-watchdog timeout in delays (0: default 2000)")
		txnFaults  = flag.Bool("txn-faults", false, "inject rolling coordinator crash–restarts into the transactional run")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile (sampled allocation sites since start, after a final GC) to this file")
	)
	flag.Parse()
	defer startProfiles(*cpuProfile, *memProfile)()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *zipf > 0 && *zipf <= 1 {
		fmt.Fprintln(os.Stderr, "smr-bench: -zipf must exceed 1 (use 0 for uniform)")
		os.Exit(2)
	}

	base := experiments.ShardRunConfig{
		Shards:       *shards,
		Commands:     *commands,
		Clients:      *clients,
		Servers:      *servers,
		Keys:         *keys,
		ReadFrac:     *readFrac,
		ZipfS:        *zipf,
		Pace:         msgnet.Time(*pace),
		Seed:         *seed,
		CompactEvery: *compact,
		Budget:       *budget,
		SkipCheck:    *noCheck,
		Online:       *online,
		Exact:        *exact,
	}

	if *txnFrac > 0 {
		if *sweep != "" || *inject {
			fmt.Fprintln(os.Stderr, "smr-bench: -txn-frac is mutually exclusive with -sweep and -faults")
			os.Exit(2)
		}
		tcfg := experiments.TxnRunConfig{
			ShardRunConfig:     base,
			TxnFrac:            *txnFrac,
			TxnKeysMax:         *txnKeysMax,
			TxnKeys:            *txnKeys,
			Groups:             *txnGroups,
			CASFrac:            *casFrac,
			RecoveryTimeout:    msgnet.Time(*recoveryTO),
			CoordinatorCrashes: *txnFaults,
		}
		r, err := experiments.RunTxn(ctx, tcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smr-bench: %v\n", err)
			os.Exit(1)
		}
		report(r.ShardRunResult)
		fmt.Printf("  txns: %d started  commit rate %.2f  aborts conflict/condition/recovery %d/%d/%d\n",
			r.TxnsStarted, r.CommitRate, r.AbortedConflict, r.AbortedCondition, r.AbortedRecovery)
		fmt.Printf("  components: %d merged histories (%d ops, largest %d) over %d entangled keys; %d fast-path keys\n",
			r.Components, r.ComponentOps, r.LargestComponent, r.ComponentKeys, r.FastPathKeys)
		if *jsonOut != "" {
			out, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				fail(nil, err)
			}
			if err := os.WriteFile(*jsonOut, append(out, '\n'), 0o644); err != nil {
				fail(nil, err)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return
	}

	if *inject {
		if *sweep != "" {
			fmt.Fprintln(os.Stderr, "smr-bench: -faults and -sweep are mutually exclusive")
			os.Exit(2)
		}
		ccfg := experiments.ChaosConfig{
			ShardRunConfig: base,
			RetryTimeout:   msgnet.Time(*retryTO),
			DupProb:        *dupProb,
			Faults:         true,
		}
		r, err := experiments.RunChaos(ctx, ccfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smr-bench: %v\n", err)
			os.Exit(1)
		}
		report(r.ShardRunResult)
		recover := fmt.Sprintf("%d delays", r.TimeToRecover)
		if r.TimeToRecover < 0 {
			recover = "never"
		}
		fmt.Printf("  faults: fast-path before/during/after %.1f/%.1f/%.1f%%  recover %s  "+
			"retries=%d  dup msgs=%d\n",
			100*r.FastPathBefore, 100*r.FastPathDuring, 100*r.FastPathAfter,
			recover, r.Retries, r.DuplicatedMsgs)
		if *jsonOut != "" {
			out, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				fail(nil, err)
			}
			if err := os.WriteFile(*jsonOut, append(out, '\n'), 0o644); err != nil {
				fail(nil, err)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return
	}

	var rows []experiments.ShardRunResult
	if *sweep != "" {
		var counts []int
		for _, s := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "smr-bench: bad -sweep entry %q\n", s)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		var err error
		rows, err = experiments.ShardSweep(ctx, counts, *perShard, base)
		if err != nil {
			fail(rows, err)
		}
	} else {
		r, err := experiments.RunSharded(ctx, base)
		if err != nil {
			fail(rows, err)
		}
		rows = append(rows, r)
	}

	for _, r := range rows {
		report(r)
	}
	if len(rows) > 1 {
		fmt.Printf("throughput scaling %d→%d shards: %.2fx\n",
			rows[0].Shards, rows[len(rows)-1].Shards,
			rows[len(rows)-1].CmdsPerDelay/rows[0].CmdsPerDelay)
	}
	if *jsonOut != "" {
		out, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fail(nil, err)
		}
		if err := os.WriteFile(*jsonOut, append(out, '\n'), 0o644); err != nil {
			fail(nil, err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// report prints one run. Run wall and check wall are reported as
// separate figures: post hoc the check wall is the whole batch pass;
// with -online it is the per-feed-timed session overhead embedded in
// the run wall (plus verdict collection), so the fast path's win shows
// even though the run wall barely moves.
func report(r experiments.ShardRunResult) {
	check := "check skipped"
	if r.KeyHistories > 0 {
		how := "post-hoc"
		if r.Online {
			how = "online"
		}
		check = fmt.Sprintf("%d key histories linearizable (%s, %d ops); check wall=%.0fms",
			r.KeyHistories, how, r.CheckedOps, r.CheckWallMs)
	}
	fmt.Printf("shards=%-2d %-10s commands=%-8d sim=%d delays  %.3f cmds/delay  "+
		"fast-path=%.1f%%  latency=%.1f  run wall=%.0fms (%.0f cmds/s)\n  consistency ok; %s\n",
		r.Shards, r.Distribution, r.Commands, r.SimTime, r.CmdsPerDelay,
		100*r.FastPathRate, r.MeanLatency, r.WallMs, r.CmdsPerSecWall, check)
}

// startProfiles begins the requested profiles and returns the function
// that finishes them. Only a run that reaches the end of main writes
// them: the error paths exit directly.
func startProfiles(cpu, mem string) (stop func()) {
	check := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "smr-bench: %v\n", err)
			os.Exit(2)
		}
	}
	finish, err := profile.Start(cpu, mem)
	check(err)
	return func() { check(finish()) }
}

func fail(rows []experiments.ShardRunResult, err error) {
	for _, r := range rows {
		report(r)
	}
	fmt.Fprintf(os.Stderr, "smr-bench: %v\n", err)
	os.Exit(1)
}
