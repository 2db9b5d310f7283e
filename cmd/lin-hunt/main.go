// Command lin-hunt stresses real concurrent Go data structures, records
// their invocation/response histories through the capture harness, and
// checks them linearizable live (ISSUE 8). Seeded-bug mutants of each
// structure are expected to come back non-linearizable.
//
// Usage:
//
//	lin-hunt -structure queue                     # stress the MS queue, check clean
//	lin-hunt -structure queue -mutant dropped-retry
//	lin-hunt -all                                 # every structure, clean + mutant
//	lin-hunt -all -assert                         # nightly mode: exit 1 unless every
//	                                              # clean run is linearizable and every
//	                                              # mutant is caught
//	lin-hunt -structure map -g 32 -ops 5000       # goroutine count and per-worker ops
//	lin-hunt -structure mutex -duration 2s        # wall-clock-bounded stress
//	lin-hunt -structure map -classical            # + uncapped ClassicalLin post-run
//	lin-hunt -structure set -rounds 8 -seed 3     # detection retry rounds for mutants
//	lin-hunt -overhead                            # capture overhead (ns/op, ratio)
//	lin-hunt -structure mutex -ops 100000 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                                              # profiles for `go tool pprof`
//
// Mutant detection is probabilistic per run (the seeded bug must fire
// and land in the captured interleaving), so mutant hunts retry up to
// -rounds times with derived seeds and report the first catch.
//
// Exit status: 0 when every run matched its expectation (clean runs
// linearizable; with -assert, mutants caught), 1 on a violated
// expectation, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	speclin "repro"
	"repro/internal/capture"
	"repro/internal/profile"
)

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		structure = flag.String("structure", "", "structure to stress: map, mutex, set, queue")
		mutant    = flag.String("mutant", "", "seeded bug to enable (see -all output for names)")
		all       = flag.Bool("all", false, "hunt every structure, unmutated and mutated")
		assert    = flag.Bool("assert", false, "exit 1 unless clean runs check clean and mutants are caught")
		g         = flag.Int("g", 4*runtime.GOMAXPROCS(0), "recording goroutines")
		ops       = flag.Int("ops", 1000, "operations per goroutine")
		duration  = flag.Duration("duration", 0, "bound the stress by wall clock instead of -ops")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		keys      = flag.Int("keys", 16, "key space of the map and set workloads")
		budget    = flag.Int("budget", 5_000_000, "checker search nodes per fed action (ClassicalLin: per history)")
		exact     = flag.Bool("exact", false, "force the exact engines (no ADT fast paths)")
		classical = flag.Bool("classical", false, "also run the uncapped ClassicalLin checker post-run")
		rounds    = flag.Int("rounds", 10, "detection retry rounds for mutant hunts")
		overhead  = flag.Bool("overhead", false, "measure capture overhead instead of checking")
		timeout   = flag.Duration("timeout", 0, "overall deadline (0 = none)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile (sampled allocation sites since start, after a final GC) to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, "lin-hunt: unexpected arguments %v", flag.Args())
	}
	if *all == (*structure != "") {
		fail(2, "lin-hunt: exactly one of -all or -structure is required")
	}

	// Profiles are written by a run that reaches its verdicts, a violated
	// expectation included; usage and configuration errors exit directly.
	finish, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(2, "lin-hunt: %v", err)
	}
	stopProfiles := func() {
		if err := finish(); err != nil {
			fail(2, "lin-hunt: %v", err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	base := capture.Config{
		Goroutines: *g, Ops: *ops, Duration: *duration, Seed: *seed,
		Keys: *keys, Budget: *budget, Exact: *exact, Classical: *classical,
	}

	if *overhead {
		structures := capture.Structures
		if *structure != "" {
			structures = []string{*structure}
		}
		for _, s := range structures {
			cfg := base
			cfg.Structure = s
			o, err := capture.Overhead(cfg)
			if err != nil {
				fail(2, "lin-hunt: %v", err)
			}
			fmt.Printf("%-5s g=%-3d raw %.0f ns/op, captured %.0f ns/op, throughput ratio %.3f\n",
				o.Structure, o.Goroutines, o.RawNsPerOp(), o.CapturedNsPerOp(), o.ThroughputRatio())
		}
		stopProfiles()
		return
	}

	type job struct{ structure, mutant string }
	var jobs []job
	if *all {
		for _, s := range capture.Structures {
			jobs = append(jobs, job{s, ""}, job{s, capture.Mutants[s]})
		}
	} else {
		jobs = append(jobs, job{*structure, *mutant})
	}

	ok := true
	for _, j := range jobs {
		cfg := base
		cfg.Structure, cfg.Mutant = j.structure, j.mutant
		if j.mutant == "" {
			rep, err := capture.Run(ctx, cfg)
			if err != nil {
				fail(2, "lin-hunt: %v", err)
			}
			fmt.Println(rep.String())
			// Report.String gives the reason of a refutation; an Unknown's
			// says where the checker gave up.
			if rep.Live.Verdict != speclin.Linearizable {
				ok = false
				if rep.Live.Verdict == speclin.Unknown {
					fmt.Printf("      reason: %s\n", rep.Live.Reason)
				}
				fmt.Printf("      FAIL: clean %s expected linearizable\n", j.structure)
			}
			if cfg.Classical && rep.Classical != nil && rep.Classical.Verdict != speclin.Linearizable {
				ok = false
				if rep.Classical.Verdict == speclin.Unknown {
					fmt.Printf("      reason: %s\n", rep.Classical.Reason)
				}
				fmt.Printf("      FAIL: clean %s classical check expected linearizable\n", j.structure)
			}
			continue
		}
		cfg.Seed = *seed
		last, round, err := capture.RunUntilCaught(ctx, cfg, *rounds)
		if err != nil {
			fail(2, "lin-hunt: %v", err)
		}
		if round > 1 {
			fmt.Printf("      (caught in round %d)\n", round)
		}
		fmt.Println(last.String())
		if round == 0 {
			fmt.Printf("      mutant %s/%s NOT caught in %d rounds\n", j.structure, j.mutant, *rounds)
			if *assert {
				ok = false
			}
		}
	}
	stopProfiles()
	if !ok {
		os.Exit(1)
	}
}
