package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestStreamGeneratorIsAFunctionOfItsSeed(t *testing.T) {
	a, ra := genStream(7, 18)
	b, rb := genStream(7, 18)
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(ra) != fmt.Sprint(rb) {
		t.Fatal("equal seeds gave different streams")
	}
	c, _ := genStream(8, 18)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds gave the same stream")
	}
	// 18 rounds are 3 cycles of the six shapes: 3·78 operations.
	if want := 2 * 3 * 78; len(a) != want {
		t.Fatalf("stream has %d actions, want %d", len(a), want)
	}
	for i, rd := range ra {
		if rd.Shape != streamShapes[i%len(streamShapes)] {
			t.Fatalf("round %d has shape %v", i, rd.Shape)
		}
		if got, want := rd.End-rd.Start, 2*(rd.Shape.k+rd.Shape.n); got != want {
			t.Fatalf("round %d has %d actions, want %d", i, got, want)
		}
	}
}

func TestWorkloadInputsAreAFunctionOfTheSeed(t *testing.T) {
	kv := func(seed int64) any {
		w := &smrKV{}
		w.prepare(nil, seed, 0.02)
		return w.cmds
	}
	txn := func(seed int64) any {
		w := &smrTxn{}
		w.prepare(nil, seed, 0.02)
		return w.items
	}
	stream := func(seed int64) any {
		w := &streamOverlap{}
		w.prepare(nil, seed, 0.1)
		return w.acts
	}
	for name, gen := range map[string]func(int64) any{"smr-kv": kv, "smr-txn-faults": txn, "stream-overlap": stream} {
		if !reflect.DeepEqual(gen(3), gen(3)) {
			t.Errorf("%s: equal seeds gave different inputs", name)
		}
		if reflect.DeepEqual(gen(3), gen(4)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestFastest(t *testing.T) {
	if xs := []float64{4.2, 3.9, 5.5, 3.95}; fastest(xs) != 3.9 {
		t.Fatalf("fastest %v", fastest(xs))
	}
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose: 1000 … 1
	}
	if p, err := percentile(xs, 50); err != nil || p != 500 {
		t.Fatalf("p50 = %v, %v", p, err)
	}
	// p99 of 1000 samples has exactly 10 beyond it; p99.5 has 5.
	if p, err := percentile(xs, 99); err != nil || p != 990 {
		t.Fatalf("p99 = %v, %v", p, err)
	}
	if _, err := percentile(xs, 99.5); err == nil {
		t.Fatal("p99.5 of 1000 samples was not refused")
	}
	if _, err := percentile(xs[:100], 99); err == nil {
		t.Fatal("p99 of 100 samples was not refused")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3, err := quartiles(xs)
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, %v", q1, q2, q3, err)
	}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3, _ := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "rep", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "smr.build", StartNs: 5, EndNs: 15, Parent: 0},
		{Name: "smr.run", StartNs: 20, EndNs: 90, Parent: 0},
		{Name: "lin.feed", StartNs: 30, EndNs: 50, Parent: 2},
		{Name: "smr.run", StartNs: 200, EndNs: 230, Parent: -1}, // outside the repetition
	}
	self := selfTimes(spans)
	if want := []int64{20, 10, 50, 20, 30}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// Self times under a root add up to the root's duration.
	if sum := self[0] + self[1] + self[2] + self[3]; sum != 100 {
		t.Fatalf("self times under rep sum to %d, want 100", sum)
	}
	if d := totalUnder(spans, 0, "smr.run"); d != 70 {
		t.Fatalf("smr.run under rep = %v, want 70ns", d)
	}
	if i := lastNamed(spans, "smr.run"); i != 4 {
		t.Fatalf("lastNamed = %d", i)
	}

	var nilTracer *tracer
	nilTracer.begin("x")() // a nil tracer records nothing and does not panic
	tr := newTracer("w")
	endOuter := tr.begin("outer")
	tr.begin("inner")()
	endOuter()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Fatalf("tracer nesting wrong: %+v", tr.spans)
	}
}

// TestScaledRunOfEveryWorkload drives the whole run — set-up cycles,
// measured repetitions, vacuity check, traced repetitions and isolation
// passes — at 1/50 scale, and holds the output to the contract.
func TestScaledRunOfEveryWorkload(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			rep, err := run(runConfig{spec: spec, seed: 2, seconds: 0, trace: true, scale: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d failed: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Errors)
			}
			if len(rep.RepWallS) != minReps || len(rep.SetupS) != setupCycles {
				t.Fatalf("%d repetitions, %d set-up cycles", len(rep.RepWallS), len(rep.SetupS))
			}
			for _, m := range endToEnd {
				v, ok := rep.EndToEnd[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s = %+v (present %v): must be reported, with its unit, never 0", m.Name, v, ok)
				}
			}
			if len(rep.EndToEnd) != len(endToEnd) || len(rep.PerLayer) != len(perLayer) {
				t.Errorf("%d end-to-end and %d per-layer metrics, want %d and %d",
					len(rep.EndToEnd), len(rep.PerLayer), len(endToEnd), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := rep.PerLayer[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s = %+v (present %v)", m.Name, v, ok)
				}
			}
			// The traced repetition's self times account for its wall.
			root := lastNamed(rep.spans, "rep")
			if root < 0 {
				t.Fatal("no rep span")
			}
			self := selfTimes(rep.spans)
			var sum int64
			for i := range rep.spans {
				for p := i; p >= 0; p = rep.spans[p].Parent {
					if p == root {
						sum += self[i]
						break
					}
				}
			}
			if sum != int64(spanDur(rep.spans[root])) {
				t.Errorf("self times under rep sum to %d, rep lasted %d", sum, spanDur(rep.spans[root]))
			}
		})
	}
}

func TestRefusals(t *testing.T) {
	if _, ok := findWorkload("set-hunt"); ok {
		t.Fatal("unknown workload found")
	}
	w := &huntLive{}
	w.prepare(nil, 1, 0.02)
	cfg := w.config(huntStructures[0].name, 100)
	cfg.Duration = 1
	if _, err := runHunt(cfg); err == nil {
		t.Fatal("Duration-bounded hunt was not refused")
	}
}

// TestBenchmarkJSONMatchesTheDriver holds BENCHMARK.json equal to what
// the driver emits: workloads with their reasons, metrics with units,
// directions and bounds.
func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", got.Command, got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
	if len(got.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads, driver has %d", len(got.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if got.Workloads[i].Name != w.name || got.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, driver has %s: %s", i, got.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, have []metric, want []metricSpec, bounded bool) {
		if len(have) != len(want) {
			t.Fatalf("%s: %d metrics, driver has %d", kind, len(have), len(want))
		}
		for i, m := range want {
			h := have[i]
			if h.Name != m.Name || h.Unit != m.Unit || h.Better != m.Better {
				t.Errorf("%s %d is %+v, driver has %+v", kind, i, h, m)
			}
			switch {
			case bounded && (h.Bound == nil || *h.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s %s: bound %v, driver has %v", kind, m.Name, h.Bound, m.Bound)
			case !bounded && h.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", got.EndToEnd, endToEnd, true)
	check("per_layer", got.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
}
