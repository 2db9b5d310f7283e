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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("e", "", "comma-separated experiment IDs to run (default: all)")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
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
		os.Exit(1)
	}
}
