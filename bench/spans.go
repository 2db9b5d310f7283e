package main

import (
	"encoding/json"
	"os"
	"time"
)

// A span is one timed call from bench/ into a layer. Spans are recorded
// by the benchmark's own files only, kept in memory, and written at exit.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
	Rep      int    `json:"rep"`    // -1 outside a repetition
	Workload string `json:"workload"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// measured repetitions run: the same code path, no clock reads.
type tracer struct {
	origin   time.Time
	workload string
	rep      int
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload, rep: -1}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, Workload: t.workload,
		StartNs: int64(time.Since(t.origin))})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNs = int64(time.Since(t.origin))
		t.open = t.open[:len(t.open)-1]
	}
}

func spanDur(s span) time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// selfTimes returns each span's duration minus the part its direct
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// totalUnder sums the durations of the spans called name that lie under
// root (directly or not).
func totalUnder(spans []span, root int, name string) time.Duration {
	var sum int64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		for p := i; p >= 0; p = spans[p].Parent {
			if p == root {
				sum += s.EndNs - s.StartNs
				break
			}
		}
	}
	return time.Duration(sum)
}

// lastNamed returns the index of the last span called name, or -1.
func lastNamed(spans []span, name string) int {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name {
			return i
		}
	}
	return -1
}

// spanFile is what -spans writes: the raw spans plus self time by name,
// so a reader sees where the traced repetition's wall went without
// redoing the arithmetic.
type spanFile struct {
	Spans      []span           `json:"spans"`
	SelfNsByID []int64          `json:"self_ns"`
	SelfNs     map[string]int64 `json:"self_ns_by_name"`
}

func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	byName := map[string]int64{}
	for i, s := range spans {
		byName[s.Name] += self[i]
	}
	b, err := json.MarshalIndent(spanFile{Spans: spans, SelfNsByID: self, SelfNs: byName}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
