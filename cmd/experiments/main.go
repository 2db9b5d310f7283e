// Command experiments regenerates the experiment tables of
// EXPERIMENTS.md (the E1–E19 index of DESIGN.md) at full scale. It exits
// non-zero when an experiment errs or fails its own shape assertions.
//
// Usage:
//
//	experiments                # run everything
//	experiments -e E1,E9       # run a subset
//	experiments -timeout 5m    # bound the whole run (checker API v2:
//	                           # cancellation aborts in-flight searches)
//	experiments -e E17 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                           # profiles for `go tool pprof`
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profile"
)

func main() {
	only := flag.String("e", "", "comma-separated experiment IDs to run (default: all)")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (sampled allocation sites since start, after a final GC) to this file")
	flag.Parse()
	stop, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	// The profiles are complete only once stop returns: every exit goes
	// through it.
	code := run(*only, *timeout)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		code = 2
	}
	os.Exit(code)
}

// run runs the selected experiments and returns the exit status.
func run(only string, timeout time.Duration) int {

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	failed := false
	for _, e := range experiments.All() {
		if len(want) > 0 && !want[strings.ToUpper(e.ID)] {
			continue
		}
		// A run that produced its rows but failed its own shape
		// assertions still prints them: the numbers say what went wrong.
		tab, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed = true
		}
		if len(tab.Rows) > 0 {
			experiments.Render(os.Stdout, tab)
		}
	}
	if failed {
		return 1
	}
	return 0
}
