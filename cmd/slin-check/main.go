// Command slin-check decides linearizability or speculative
// linearizability of JSON trace files.
//
// Usage:
//
//	slin-check -adt consensus trace.json                 # Lin (new def.)
//	slin-check -adt consensus -mode classical trace.json # Lin (classical)
//	slin-check -adt consensus -mode slin -m 1 -n 2 trace.json
//	slin-check -adt consensus a.json b.json c.json       # batch, parallel
//	slin-check -adt register -stream trace.json          # incremental Session
//	slin-check -mode slin -stream trace.json             # incremental SLin Session
//	slin-check -adt register -exact trace.json           # force the exact engine
//	                                                     # (no ADT fast path)
//	slin-check -timeout 30s trace.json                   # context deadline
//	slin-check -adt set -cpuprofile cpu.pb.gz -memprofile mem.pb.gz trace.json
//	                                                     # profiles for `go tool pprof`
//
// Every mode runs one engine per property: lin and slin checks, one-shot
// or streamed, are the frontier sessions of packages lin and slin
// (DESIGN.md, decisions 21 and 25), and classical is the depth-first
// search over placed operation sets.
//
// With more than one trace file the independent checks are sharded across
// a worker pool (-workers, default GOMAXPROCS) and one verdict line is
// printed per file, prefixed with its name.
//
// The trace format is a JSON array of actions:
//
//	[
//	  {"kind":"inv","client":"c1","phase":1,"input":"p:a"},
//	  {"kind":"res","client":"c1","phase":1,"input":"p:a","output":"d:a"},
//	  {"kind":"swi","client":"c2","phase":2,"input":"p:b","value":"a"}
//	]
//
// Exit status: 0 when the property holds for every trace, 1 when some
// trace violates it, 2 on usage or input errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/profile"
	"repro/internal/slin"
	"repro/internal/trace"
)

// stopProfiles finishes the profiles -cpuprofile and -memprofile asked
// for; exit calls it first, so both files are complete whatever the exit
// status.
var stopProfiles = func() error { return nil }

func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "slin-check: %v\n", err)
		code = 2
	}
	os.Exit(code)
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	exit(code)
}

func pickADT(name string) (adt.Folder, bool) {
	switch name {
	case "consensus":
		return adt.Consensus{}, true
	case "register":
		return adt.Register{}, true
	case "counter":
		return adt.Counter{}, true
	case "queue":
		return adt.Queue{}, true
	case "set":
		return adt.Set{}, true
	case "mutex":
		return adt.Mutex{}, true
	case "stack":
		return adt.Stack{}, true
	case "universal":
		return adt.Universal{}, true
	}
	return nil, false
}

// verdict is one file's check outcome: the report text and whether the
// property holds.
type verdict struct {
	ok     bool
	report string
}

func main() {
	adtName := flag.String("adt", "consensus", "abstract data type: consensus|register|counter|queue|set|mutex|stack|universal")
	mode := flag.String("mode", "lin", "property: lin|classical|slin")
	m := flag.Int("m", 1, "slin: lower phase bound m")
	n := flag.Int("n", 2, "slin: upper phase bound n")
	temporal := flag.Bool("temporal", false, "slin: use the temporal Abort-Order variant")
	budget := flag.Int("budget", 0, "search nodes per fed action (classical: over the whole search; 0 = default)")
	workers := flag.Int("workers", 0, "worker pool size for multi-file batches (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "overall deadline; exceeded checks report unknown (exit 2)")
	stream := flag.Bool("stream", false, "lin and slin modes: feed each trace through an incremental Session instead of one-shot Check")
	exact := flag.Bool("exact", false, "force the exact search engines (skip the ADT-specialized fast-path checkers)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (sampled allocation sites since start, after a final GC) to this file")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if flag.NArg() < 1 {
		fail(2, "usage: slin-check [flags] trace.json [trace.json ...]")
	}
	f, ok := pickADT(*adtName)
	if !ok {
		fail(2, "unknown ADT %q", *adtName)
	}
	switch *mode {
	case "lin", "classical", "slin":
	default:
		fail(2, "unknown mode %q", *mode)
	}
	if *stream && *mode == "classical" {
		fail(2, "-stream: classical mode has no incremental session")
	}
	stop, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(2, "slin-check: %v", err)
	}
	stopProfiles = stop

	// Parse every file up front so usage errors (exit 2) are reported
	// before any verdict is printed.
	files := flag.Args()
	traces := make([]trace.Trace, len(files))
	for i, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			fail(2, "read: %v", err)
		}
		traces[i], err = trace.DecodeJSON(raw)
		if err != nil {
			fail(2, "parse %s: %v", name, err)
		}
	}

	var rinit slin.RInit = slin.ConsensusRInit{}
	if *adtName == "universal" {
		rinit = slin.UniversalRInit{}
	}

	// Shard the independent checks across the worker pool (checker API
	// v2: context-aware, functional options); verdicts come back in file
	// order.
	opts := []check.Option{check.WithBudget(*budget), check.WithExact(*exact)}
	verdicts, err := check.Parallel(ctx, traces, *workers, func(i int, t trace.Trace) (verdict, error) {
		switch *mode {
		case "lin", "classical":
			var res lin.Result
			var err error
			switch {
			case *mode == "lin" && *stream:
				// Incremental session: one action at a time, same verdict
				// as the one-shot check on every prefix.
				sess := lin.NewSessionFast(ctx, f, opts...)
				if err = sess.FeedAll(t); err == nil {
					res, err = sess.Result()
				}
			case *mode == "lin":
				res, err = lin.CheckFast(ctx, f, t, opts...)
			default:
				res, err = lin.CheckClassical(ctx, f, t, opts...)
			}
			if err != nil {
				return verdict{}, fmt.Errorf("%s: %w", files[i], err)
			}
			return linVerdict(t, res), nil
		default:
			sopts := append(opts[:len(opts):len(opts)], check.WithTemporalAbortOrder(*temporal))
			var res slin.Result
			var err error
			if *stream {
				// Incremental session, fast path while no switch action
				// comes: same verdict as the one-shot check.
				var sess *slin.Session
				if sess, err = slin.NewSessionFast(ctx, f, rinit, *m, *n, sopts...); err == nil {
					if err = sess.FeedAll(t); err == nil {
						res, err = sess.Result()
					}
				}
			} else {
				res, err = slin.Check(ctx, f, rinit, *m, *n, t, sopts...)
			}
			if err != nil {
				return verdict{}, fmt.Errorf("%s: %w", files[i], err)
			}
			return slinVerdict(*m, *n, res), nil
		}
	})
	if err != nil {
		fail(2, "check: %v", err)
	}

	allOK := true
	for i, v := range verdicts {
		report := v.report
		if len(files) > 1 {
			// Prefix every line (verdicts, witnesses, failing inits) so
			// per-file grep works on multi-line reports.
			lines := strings.Split(strings.TrimRight(report, "\n"), "\n")
			report = files[i] + ": " + strings.Join(lines, "\n"+files[i]+": ") + "\n"
		}
		fmt.Print(report)
		allOK = allOK && v.ok
	}
	if !allOK {
		exit(1)
	}
	exit(0)
}

func linVerdict(t trace.Trace, res lin.Result) verdict {
	var b strings.Builder
	if res.OK {
		b.WriteString("linearizable\n")
		if len(res.Witness) > 0 {
			b.WriteString("witness (commit histories by response index):\n")
			for i := 0; i < len(t); i++ {
				if h, ok := res.Witness[i]; ok {
					fmt.Fprintf(&b, "  %3d: %v\n", i, h)
				}
			}
		}
		return verdict{ok: true, report: b.String()}
	}
	fmt.Fprintf(&b, "NOT linearizable: %s\n", res.Reason)
	return verdict{ok: false, report: b.String()}
}

func slinVerdict(m, n int, res slin.Result) verdict {
	var b strings.Builder
	if res.OK {
		fmt.Fprintf(&b, "speculatively linearizable: SLin(%d,%d)\n", m, n)
		return verdict{ok: true, report: b.String()}
	}
	fmt.Fprintf(&b, "NOT SLin(%d,%d): %s\n", m, n, res.Reason)
	if res.FailedInit != nil {
		b.WriteString("failing init interpretation:\n")
		for _, i := range slices.Sorted(maps.Keys(res.FailedInit)) {
			fmt.Fprintf(&b, "  action %d ↦ %v\n", i, res.FailedInit[i])
		}
	}
	return verdict{ok: false, report: b.String()}
}
