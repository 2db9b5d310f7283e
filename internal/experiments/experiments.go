// Package experiments regenerates every experiment table of
// EXPERIMENTS.md (the E1–E19 index of DESIGN.md). Each experiment is a
// function returning a Table, with an error when the experiment's own
// shape assertions fail; cmd/experiments prints them.
//
// All simulations are deterministic: tables list the seeds they use.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table in markdown form.
func Render(w io.Writer, t Table) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|"))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n%s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment pairs an ID with its runner. Runners are context-aware
// (checker API v2): cancelling ctx aborts the checker searches inside an
// experiment; cmd/experiments wires its -timeout flag through here.
type Experiment struct {
	ID  string
	Run func(ctx context.Context) (Table, error)
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1FastPathLatency},
		{"E2", E2ContentionSweep},
		{"E3", E3FaultInjection},
		{"E4", E4RegisterVsCAS},
		{"E5", E5SharedMemContention},
		{"E6", E6ModelCheck},
		{"E6b", E6bAbortOrderDivergence},
		{"E7", E7CompositionRefinement},
		{"E8", E8DefinitionEquivalence},
		{"E9", E9SMRThroughput},
		{"E10", E10PhaseChain},
		{"E11", E11UniversalConstruction},
		{"E12", E12ShardSweep},
		{"E14", E14LongTraceSweep},
		{"E15", E15ChaosRecovery},
		{"E16", E16FastpathCheckers},
		{"E17", E17CaptureHunt},
		{"E18", E18StreamMemTable},
		{"E19", E19TxnSweep},
	}
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// yesNo is a verdict cell: "yes", or a "NO" that stands out.
func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}
