package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The noise study: two sets of runs of the same code, interleaved
// (A,B,A,B,…) so that drift of the box hits both alike. Set A uses seeds
// 1..n and set B seeds n+1..2n, so the spread and the gap include the
// variation between seeds, as they do in the acceptance pipeline. Its
// output is NOISE.md, and NOISE.md is where the bounds in BENCHMARK.json
// come from.

// suggestBound is the rule the bounds follow: three times the gap
// between the two medians or three times the wider quartile spread,
// whichever is larger, rounded up to a whole percent, at least 1%.
func suggestBound(gap, spread float64) float64 {
	b := math.Ceil(3*math.Max(gap, spread)*100) / 100
	return math.Max(b, 0.01)
}

// boundCap is the widest bound the contract lets an end-to-end metric
// carry. (ISSUE 13 asked for 10%; NOISE.md shows what the reference box
// allows.) A metric that needs more is held at the cap: a row still fails
// when a spread exceeds it.
const boundCap = 0.25

// runSelf runs this binary once and reads the result line it prints.
func runSelf(exe, workload string, seed int64, seconds float64) (*result, time.Duration, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, wall, fmt.Errorf("%s seed %d: %v\n%s", workload, seed, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	res := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, wall, fmt.Errorf("%s seed %d: result line: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, wall, fmt.Errorf("%s seed %d: incorrect run (%d of %d operations failed)\n%s",
			workload, seed, res.Failed, res.Attempted, stderr.String())
	}
	return res, wall, nil
}

func selfCheck(n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct {
		workload, metric string
		set              int
	}
	vals := map[key][]float64{}
	walls := map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloadSpecs {
			for set := 0; set < 2; set++ {
				seed := int64(set*n + i + 1)
				res, wall, err := runSelf(exe, w.name, seed, seconds)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "selfcheck %d/%d %s set %c seed %d: %.1fs\n",
					i+1, n, w.name, 'A'+set, seed, wall.Seconds())
				walls[w.name] = append(walls[w.name], wall.Seconds())
				for _, m := range endToEnd {
					vals[key{w.name, m.Name, set}] = append(vals[key{w.name, m.Name, set}], res.Metrics[m.Name].Value)
				}
			}
		}
	}

	env := readEnv()
	pct := func(x float64) string { return strconv.FormatFloat(100*x, 'f', 2, 64) + "%" }
	type row struct{ ma, mb, gap, sa, sb, need float64 }
	study := func(w, m string) row {
		a, b := vals[key{w, m, 0}], vals[key{w, m, 1}]
		r := row{ma: median(a), mb: median(b), sa: quartileSpread(a), sb: quartileSpread(b)}
		r.gap = math.Abs(r.mb-r.ma) / math.Abs(r.ma)
		r.need = suggestBound(r.gap, math.Max(r.sa, r.sb))
		return r
	}

	fmt.Printf("# Noise study\n\n")
	fmt.Printf("Output of `bench -selfcheck %d -seconds %g`: two interleaved sets (A,B,A,B,…) of %d runs per workload\n", n, seconds, n)
	fmt.Printf("of the same code, set A on seeds 1–%d and set B on seeds %d–%d.\n\n", n, n+1, 2*n)
	fmt.Printf("Reference box: %s, %d cores, GOMAXPROCS %d, %s, commit %s, 1-minute load %.2f at the end.\n\n",
		env.CPUModel, env.NProc, min(env.NProc, 2), env.GoVersion, env.Commit, env.LoadBefore)
	fmt.Printf("Spread is the distance between the first and third quartile as a share of the median\n")
	fmt.Printf("(Python's `statistics.quantiles(values, n=4)`); gap is the distance between the two medians as a\n")
	fmt.Printf("share of A's; `needs` is three times the larger of gap and wider spread, rounded up to a whole\n")
	fmt.Printf("percent, at least 1%%. A metric's bound in BENCHMARK.json is the largest `needs` over the four\n")
	fmt.Printf("workloads. A row passes when both spreads are within the bound and the gap within half of it.\n")
	fmt.Printf("No bound may exceed %s; a metric that needs more is held at that.\n\n", pct(boundCap))

	allPass := true
	needs := map[string]float64{}
	for _, w := range workloadSpecs {
		fmt.Printf("## %s\n\nA run takes %.1f s (median of %d).\n\n", w.name, median(walls[w.name]), len(walls[w.name]))
		fmt.Printf("| metric | unit | median A | median B | gap | spread A | spread B | needs | bound | verdict |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			r := study(w.name, m.Name)
			needs[m.Name] = math.Max(needs[m.Name], r.need)
			verdict := "PASS"
			if math.Max(r.sa, r.sb) > m.Bound || r.gap > m.Bound/2 {
				verdict, allPass = "FAIL", false
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %s | %s | %s | %s | %s | %s |\n",
				m.Name, m.Unit, r.ma, r.mb, pct(r.gap), pct(r.sa), pct(r.sb), pct(r.need), pct(m.Bound), verdict)
		}
		fmt.Println()
	}

	fmt.Printf("## Bounds\n\n| metric | needs (max over workloads) | bound in BENCHMARK.json | |\n|---|---|---|---|\n")
	for _, m := range endToEnd {
		note := ""
		switch {
		case needs[m.Name] <= m.Bound:
		case m.Bound < boundCap:
			note = "bound is tighter than this study supports"
		default:
			note = "held at the cap: a spread above a third of it was seen"
		}
		fmt.Printf("| %s | %s | %s | %s |\n", m.Name, pct(needs[m.Name]), pct(m.Bound), note)
	}
	fmt.Println()

	fmt.Printf("## Every run\n\nValues in run order, so a slow spell of the box shows as a run of worse values in both sets.\n\n")
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			for set := 0; set < 2; set++ {
				fmt.Printf("- %s %s %c:", w.name, m.Name, 'A'+set)
				for _, v := range vals[key{w.name, m.Name, set}] {
					fmt.Printf(" %.5g", v)
				}
				fmt.Println()
			}
		}
	}
	fmt.Println()
	if !allPass {
		return fmt.Errorf("at least one end-to-end metric × workload failed its bound (FAIL rows above)")
	}
	return nil
}
