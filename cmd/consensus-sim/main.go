// Command consensus-sim runs the paper's §2.1 case study — the Quorum
// fast path composed with the Paxos backup — on the deterministic network
// simulator, under configurable contention and faults, and reports
// per-operation results plus oracle verdicts.
//
// Usage examples:
//
//	consensus-sim                                 # 3 clients, 3 servers
//	consensus-sim -clients 5 -servers 7 -seed 9
//	consensus-sim -crash 2 -drop 0.1 -jitter 4
//	consensus-sim -stagger 10                     # contention-free
//	consensus-sim -trace                          # dump the JSON trace
//	consensus-sim -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                                              # profiles for `go tool pprof`
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/paxos"
	"repro/internal/profile"
	"repro/internal/quorum"
	"repro/internal/slin"
	"repro/internal/trace"
)

// stopProfiles finishes the profiles -cpuprofile and -memprofile asked
// for; exit calls it first, so both files are complete whatever the exit
// status.
var stopProfiles = func() error { return nil }

func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		code = 2
	}
	os.Exit(code)
}

func main() {
	clients := flag.Int("clients", 3, "number of clients")
	servers := flag.Int("servers", 3, "number of servers")
	seed := flag.Int64("seed", 1, "random seed (runs are replayable)")
	jitter := flag.Int64("jitter", 1, "max message delay (min is 1)")
	drop := flag.Float64("drop", 0, "message drop probability")
	crash := flag.Int("crash", 0, "servers to crash at t=0")
	stagger := flag.Int64("stagger", 0, "delay between successive proposals (0 = all concurrent)")
	timeout := flag.Int64("timeout", 10, "quorum timer")
	dumpTrace := flag.Bool("trace", false, "print the recorded trace as JSON")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (sampled allocation sites since start, after a final GC) to this file")
	flag.Parse()
	stop, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-sim: %v\n", err)
		os.Exit(2)
	}
	stopProfiles = stop

	w := msgnet.New(msgnet.Config{
		Seed:     *seed,
		MinDelay: 1,
		MaxDelay: msgnet.Time(*jitter),
		DropProb: *drop,
	})
	var cids, sids []msgnet.ProcID
	for i := 0; i < *clients; i++ {
		cids = append(cids, msgnet.ProcID(fmt.Sprintf("c%d", i+1)))
	}
	for i := 0; i < *servers; i++ {
		sids = append(sids, msgnet.ProcID(fmt.Sprintf("s%d", i+1)))
	}
	obj, err := mpcons.Build(w, cids, sids,
		quorum.Protocol{Timeout: msgnet.Time(*timeout), Retransmit: msgnet.Time(*timeout) / 2},
		paxos.Protocol{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	for i := 0; i < *crash && i < *servers; i++ {
		w.Crash(sids[i], 0)
	}
	for i, c := range cids {
		obj.ProposeAt(c, trace.Value(fmt.Sprintf("v%d", i+1)), msgnet.Time(int64(i)**stagger))
	}
	end := obj.Run(1_000_000)

	fmt.Printf("simulated %d clients / %d servers, seed %d, virtual end time %d\n",
		*clients, *servers, *seed, end)
	sent, delivered, dropped := w.Stats()
	fmt.Printf("messages: %d sent, %d delivered, %d dropped\n\n", sent, delivered, dropped)

	fmt.Printf("%-6s %-8s %-10s %-8s %-9s %s\n", "client", "proposed", "decided", "latency", "switches", "deciding phase")
	for _, r := range obj.Results() {
		fmt.Printf("%-6s %-8s %-10s %-8d %-9d %d\n",
			r.Client, r.Value, r.Decision, r.Latency(), r.Switches, r.Phase)
	}

	tr := obj.Trace()
	plain := tr.Project(func(a trace.Action) bool { return a.Kind != trace.Swi })
	res, err := lin.Check(context.Background(), adt.Consensus{}, plain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lin check:", err)
		exit(2)
	}
	fmt.Printf("\nlinearizable: %v\n", res.OK)

	first := tr.ProjectSig(1, 2)
	sres, err := slin.Check(context.Background(), adt.Consensus{}, slin.ConsensusRInit{}, 1, 2, first,
		check.WithTemporalAbortOrder(true))
	if err == nil {
		fmt.Printf("quorum projection SLin(1,2) [temporal]: %v\n", sres.OK)
	}
	second := tr.ProjectSig(2, 3)
	sres, err = slin.Check(context.Background(), adt.Consensus{}, slin.ConsensusRInit{}, 2, 3, second)
	if err == nil {
		fmt.Printf("backup projection SLin(2,3): %v\n", sres.OK)
	}

	if *dumpTrace {
		b, err := tr.EncodeJSON()
		if err == nil {
			fmt.Printf("\n%s\n", b)
		}
	}
	if !res.OK {
		exit(1)
	}
	exit(0)
}
