// Command bench is the repository's one repeatable benchmark: four
// workloads over both pipelines (simulated sharded SMR, runtime capture)
// and the exact checker underneath, every output checked, every metric
// printed by name and unit. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract.
//
// A run is three set-up cycles, then measured repetitions of identical
// seeded work on a fresh system (five, and more until -seconds of measured
// time have passed), then the checks that the checker is not vacuous, then
// (-trace 1) repetitions with spans on plus the isolation passes.
// Time-based metrics come from the fastest repetition, counts from totals
// over all.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	setupCycles = 3
	minReps     = 5
	// tracedReps is how many repetitions -trace 1 adds with spans on; the
	// faster one is read.
	tracedReps = 2
)

//go:embed golden.json
var goldenJSON []byte

// runConfig is one benchmark run.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64 // measured time after which no further repetition starts
	trace   bool
	scale   float64 // repetition size multiplier; 1 for a benchmark run
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the acceptance pipeline reads: the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything a run knows; -out writes it.
type report struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Loop     string   `json:"loop"`
	Seed     int64    `json:"seed"`
	Env      envBlock `json:"env"`
	// Noisy marks a run whose calibration loop changed speed by more
	// than 10% between start and end; its numbers are suspect.
	Noisy     bool     `json:"noisy"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"ops_attempted"`
	Failed    int64    `json:"ops_failed"`
	Errors    []string `json:"errors,omitempty"`
	// RepWallS and RepCPUS are the measured repetitions one by one.
	RepWallS []float64 `json:"rep_wall_s"`
	RepCPUS  []float64 `json:"rep_cpu_s"`
	SetupS   []float64 `json:"setup_cycle_s"`
	// Deterministic holds the counts that must repeat exactly; at seed 1
	// they are compared with golden.json.
	Deterministic map[string]string      `json:"deterministic"`
	GoldenDrift   []string               `json:"golden_drift,omitempty"`
	EndToEnd      map[string]metricValue `json:"end_to_end"`
	PerLayer      map[string]metricValue `json:"per_layer,omitempty"`

	spans []span
}

// diffCounts lists the keys on which two deterministic-count maps differ.
func diffCounts(want, got map[string]string) []string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		if want[k] != got[k] {
			out = append(out, fmt.Sprintf("%s: %q, now %q", k, want[k], got[k]))
		}
	}
	slices.Sort(out)
	return out
}

// absorb folds one repetition's output checks into the report.
func (r *report) absorb(what string, res repResult) {
	r.Attempted += res.ops
	r.Failed += res.failed
	for _, e := range res.errs {
		r.Errors = append(r.Errors, what+": "+e)
	}
}

// run executes one benchmark run.
func run(cfg runConfig) (*report, error) {
	rep := &report{
		Workload: cfg.spec.name, Why: cfg.spec.why, Loop: cfg.spec.loop, Seed: cfg.seed,
		Env: readEnv(),
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.spec.name)
	}
	calibBefore := calibrate()

	// Set-up: generate and materialise the inputs, construct the system
	// and drive a warm-up slice to completion, so lazy set-up (per-key
	// sessions, interner tables, slot maps, recorder chunks) is inside.
	w := cfg.spec.new()
	for i := 0; i < setupCycles; i++ {
		runtime.GC()
		start := time.Now()
		endSetup := tr.begin("setup")
		w.prepare(tr, cfg.seed, cfg.scale)
		endWarm := tr.begin("warmup")
		res := w.rep(tr, cfg.spec.warmFrac)
		endWarm()
		endSetup()
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		rep.absorb("warm-up", res)
	}

	// Measured repetitions: tracing off, GC and bookkeeping outside the
	// timers.
	var ms0, ms1 runtime.MemStats
	var ops, mallocs, bytes, gcCycles, gcPauseNs uint64
	var measured float64
	var last repResult
	for n := 0; n < minReps || measured < cfg.seconds; n++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		start := time.Now()
		res := w.rep(nil, 1)
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)

		measured += wall.Seconds()
		rep.RepWallS = append(rep.RepWallS, wall.Seconds())
		rep.RepCPUS = append(rep.RepCPUS, cpu.Seconds())
		ops += uint64(res.ops)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		rep.absorb(fmt.Sprintf("rep %d", n), res)
		if n > 0 {
			// The one output failure that aborts a run: the deterministic
			// counts are the regression oracle, and a run in which they
			// do not repeat has no meaning.
			if d := diffCounts(last.det, res.det); len(d) > 0 {
				return rep, fmt.Errorf("repetitions of identical seeded work disagree:\n  %s", strings.Join(d, "\n  "))
			}
		}
		last = res
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	heapEnd := float64(ms1.HeapAlloc) / (1 << 20)
	calibAfter := calibrate()
	drift := float64(calibAfter) / float64(calibBefore)
	rep.Noisy = drift < 0.9 || drift > 1.1
	rep.Deterministic = last.det

	digestMatch := 0.0
	if _, ok := last.det["msgnet.digest"]; ok {
		digestMatch = 1
	}
	if cfg.seed == 1 && cfg.scale == 1 {
		var golden map[string]map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			return rep, fmt.Errorf("golden.json: %v", err)
		}
		if rep.GoldenDrift = diffCounts(golden[cfg.spec.name], last.det); len(rep.GoldenDrift) > 0 {
			digestMatch = 0
		}
	}

	// The timers have stopped: show the checker that was timed can say no.
	if err := w.vacuity(); err != nil {
		rep.Failed = rep.Attempted
		rep.Errors = append(rep.Errors, "vacuity: "+err.Error())
	}

	fastWall, fastCPU := fastest(rep.RepWallS), fastest(rep.RepCPUS)
	repOps := float64(last.ops)
	e2e := map[string]float64{
		"ops_per_s":          repOps / fastWall,
		"cpu_s_per_mop":      fastCPU / (repOps / 1e6),
		"allocs_per_op":      float64(mallocs) / float64(ops),
		"alloc_bytes_per_op": float64(bytes) / float64(ops),
		"setup_s":            fastest(rep.SetupS),
	}

	if cfg.trace {
		layer, err := tracedRun(w, tr, fastWall)
		if err != nil {
			return rep, err
		}
		layer["msgnet.digest_match"] = digestMatch
		layer["go.gc_cycles"] = float64(gcCycles)
		layer["go.gc_pause_ms"] = float64(gcPauseNs) / 1e6
		layer["go.heap_live_end_mb"] = heapEnd
		layer["bench.rep_spread"] = (slices.Max(rep.RepWallS) - fastWall) / fastWall
		layer["bench.calib_ms"] = float64(calibBefore.Microseconds()) / 1e3
		layer["bench.calib_drift"] = drift
		rep.PerLayer = metricValues(perLayer, layer)
		rep.spans = tr.spans
	}

	e2e["peak_rss_mb"] = peakRSSMiB()
	rep.EndToEnd = metricValues(endToEnd, e2e)
	rep.Env.LoadAfter = loadAvg1()
	rep.Correct = rep.Failed == 0 && len(rep.Errors) == 0
	return rep, nil
}

// tracedRun is the part of a run only -trace 1 adds, after the measured
// repetitions and outside every end-to-end number: tracedReps repetitions
// with spans on, then the workload's isolation passes. It returns the
// per-layer metrics that come from spans, the traced repetition's
// counters and the isolation passes.
func tracedRun(w runner, tr *tracer, fastWall float64) (map[string]float64, error) {
	// The faster traced repetition is read: trace_overhead_share compares
	// it with the fastest untraced one, and a single sample would mostly
	// report the box.
	var res repResult
	root := -1
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		tr.rep = i
		endRep := tr.begin("rep")
		r := w.rep(tr, 1)
		endRep()
		if r.failed > 0 {
			return nil, fmt.Errorf("traced repetition failed its output checks: %v", r.errs)
		}
		if j := lastNamed(tr.spans, "rep"); root < 0 || spanDur(tr.spans[j]) < spanDur(tr.spans[root]) {
			res, root = r, j
		}
	}
	tr.rep = -1
	layer := res.layer
	wall := spanDur(tr.spans[root]).Seconds()
	layer["bench.trace_overhead_share"] = wall/fastWall - 1
	for _, name := range []string{"smr.build", "smr.submit", "smr.run", "smr.consistency", "lin.verdict"} {
		layer[name+"_s"] = totalUnder(tr.spans, root, name).Seconds()
	}
	if run := layer["smr.run_s"]; run > 0 {
		layer["lin.feed_share"] = layer["lin.feed_s"] / run
	}
	// The fastest set-up cycle's generation time.
	gen := []float64{}
	for i, s := range tr.spans {
		if s.Name == "setup" {
			gen = append(gen, totalUnder(tr.spans, i, "workload.gen").Seconds())
		}
	}
	layer["workload.gen_s"] = fastest(gen)

	endIso := tr.begin("isolation")
	iso, err := w.isolate(tr, res)
	endIso()
	if err != nil {
		return nil, fmt.Errorf("isolation pass: %v", err)
	}
	for k, v := range iso {
		layer[k] = v
	}
	if i := lastNamed(tr.spans, "smr.run_nocheck"); i >= 0 {
		nocheck := totalUnder(tr.spans, i, "smr.run").Seconds()
		simNs := layer["msgnet.delivered"] * layer["msgnet.echo_ns_per_event"]
		layer["smr.run_nocheck_s"] = nocheck
		layer["smr.protocol_est_s"] = nocheck - simNs/1e9
		layer["msgnet.est_share"] = simNs / 1e9 / layer["smr.run_s"]
	}
	return layer, nil
}

// metricValues picks the specs' metrics out of vals, 0 for a metric the
// workload does not have.
func metricValues(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// printTable writes metrics by name and unit, in spec order.
func printTable(specs []metricSpec, vals map[string]metricValue) {
	for _, m := range specs {
		fmt.Fprintf(os.Stderr, "  %-36s %16.6g %s\n", m.Name, vals[m.Name].Value, m.Unit)
	}
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds   = flag.Float64("seconds", 20, "measured seconds after which no further repetition starts (there are never fewer than five)")
		trace     = flag.Int("trace", 0, "1 repeats the repetitions with spans on, adds the isolation passes, and reports the per-layer metrics")
		out       = flag.String("out", "", "write the full JSON report to this file")
		spansOut  = flag.String("spans", "", "write the traced repetition's spans to this file (with -trace 1)")
		selfcheck = flag.Int("selfcheck", 0, "noise study: run two interleaved sets of this many runs per workload and print NOISE.md")
	)
	flag.Parse()
	if raceEnabled {
		fatal("refusing to run: built with -race, whose instrumentation is what the numbers would measure")
	}
	if flag.NArg() > 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, *seconds); err != nil {
			fatal("selfcheck: %v", err)
		}
		return
	}
	spec, ok := findWorkload(*name)
	if !ok {
		fatal("unknown workload %q; have %s", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace takes 0 or 1")
	}
	if *spansOut != "" && *trace == 0 {
		fatal("-spans needs -trace 1")
	}

	// Both smr workloads are one event loop plus concurrent GC, and the
	// hunt's load generators use GOMAXPROCS goroutines: two cores is the
	// shape the reference numbers were taken at.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	rep, err := run(runConfig{spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1})
	if err != nil {
		fatal("%s seed %d: %v", spec.name, *seed, err)
	}

	fmt.Fprintf(os.Stderr, "%s seed %d: %d repetitions, fastest %.3fs; ops attempted %d, failed %d; noisy %v\n",
		rep.Workload, rep.Seed, len(rep.RepWallS), fastest(rep.RepWallS), rep.Attempted, rep.Failed, rep.Noisy)
	fmt.Fprintf(os.Stderr, "  %s, %d cores, GOMAXPROCS %d, %s, commit %s\n",
		rep.Env.CPUModel, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit)
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", e)
	}
	for _, d := range rep.GoldenDrift {
		fmt.Fprintf(os.Stderr, "  drift against golden.json: %s\n", d)
	}
	printTable(endToEnd, rep.EndToEnd)
	line := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
	if rep.PerLayer != nil {
		printTable(perLayer, rep.PerLayer)
		line.Metrics = rep.PerLayer
	}

	if *out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal("-out: %v", err)
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rep.spans); err != nil {
			fatal("-spans: %v", err)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
