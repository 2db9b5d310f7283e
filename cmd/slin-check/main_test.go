package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
)

// TestMain runs the command itself when the test binary is re-executed
// by runCLI, so the tests below see its output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("SLIN_CHECK_RUN_MAIN") == "1" {
		os.Args = append([]string{"slin-check"}, os.Args[1:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI runs slin-check with args and returns its standard output and
// exit status.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SLIN_CHECK_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("slin-check %v: %v (stderr %q)", args, err, stderr.String())
	return "", 0
}

// writeTrace writes tr as a trace file in dir.
func writeTrace(t *testing.T, dir, name string, tr trace.Trace) string {
	t.Helper()
	raw, err := tr.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestADTsReplayable: a history of every folder the capture harness and
// the fast paths check — set, mutex and stack included — replays through
// slin-check, and one whose response no sequential run produces is
// refused, streamed and one-shot alike.
func TestADTsReplayable(t *testing.T) {
	dir := t.TempDir()
	pair := func(c trace.ClientID, in, out trace.Value) trace.Trace {
		return trace.Trace{trace.Invoke(c, 1, in), trace.Response(c, 1, in, out)}
	}
	for _, c := range []struct {
		adt       string
		good, bad trace.Trace
	}{
		{"set",
			append(pair("a", adt.AddInput("x"), adt.BoolOutput(true)), pair("b", adt.HasInput("x"), adt.BoolOutput(true))...),
			append(pair("a", adt.AddInput("x"), adt.BoolOutput(true)), pair("b", adt.HasInput("x"), adt.BoolOutput(false))...)},
		{"mutex",
			append(pair("a", adt.LockInput(), adt.WriteOutput()), pair("a", adt.UnlockInput(), adt.WriteOutput())...),
			append(pair("a", adt.LockInput(), adt.WriteOutput()), pair("b", adt.LockInput(), adt.WriteOutput())...)},
		{"stack",
			append(pair("a", adt.PushInput("x"), adt.WriteOutput()), pair("b", adt.PopInput(), adt.ReadOutput("x"))...),
			append(pair("a", adt.PushInput("x"), adt.WriteOutput()), pair("b", adt.PopInput(), adt.ReadOutput(adt.Bottom))...)},
	} {
		t.Run(c.adt, func(t *testing.T) {
			good := writeTrace(t, dir, c.adt+"-good.json", c.good)
			bad := writeTrace(t, dir, c.adt+"-bad.json", c.bad)
			for _, mode := range [][]string{{}, {"-stream"}, {"-mode", "slin", "-stream"}} {
				args := append([]string{"-adt", c.adt}, mode...)
				if out, code := runCLI(t, append(args, good)...); code != 0 {
					t.Errorf("%v on a linearizable history: exit %d, %q", mode, code, out)
				}
				if out, code := runCLI(t, append(args, bad)...); code != 1 || !strings.Contains(out, "NOT") {
					t.Errorf("%v on a violating history: exit %d, %q", mode, code, out)
				}
			}
		})
	}
	if _, code := runCLI(t, "-adt", "tree", writeTrace(t, dir, "any.json", nil)); code != 2 {
		t.Errorf("unknown ADT: exit %d, want 2", code)
	}
}

// TestBudgetPerFedAction: -budget bounds each fed action (DESIGN.md,
// decision 34), so a long cheap stream that spends it many times over
// in all is decided by the exact engines, one-shot and streamed, lin
// and slin, with no further flag — while classical, one depth-first
// search, spends it over the whole run and gives up (exit 2).
func TestBudgetPerFedAction(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		c := trace.ClientID(fmt.Sprintf("w%d", i))
		in := adt.WriteInput(fmt.Sprint(i))
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.WriteOutput()))
	}
	const budget = 100
	if r, err := lin.Check(context.Background(), adt.Register{}, tr); err != nil || r.Nodes <= 2*budget {
		t.Fatalf("the stream spends %d nodes in all (%v), want more than twice the budget of %d", r.Nodes, err, budget)
	}
	path := writeTrace(t, t.TempDir(), "writes.json", tr)
	args := []string{"-adt", "register", "-exact", "-budget", fmt.Sprint(budget)}
	for _, mode := range [][]string{{}, {"-stream"}, {"-mode", "slin"}, {"-mode", "slin", "-stream"}} {
		if out, code := runCLI(t, append(append(args, mode...), path)...); code != 0 {
			t.Errorf("%v: exit %d, %q; want the stream decided", mode, code, out)
		}
	}
	if out, code := runCLI(t, append(args, "-mode", "classical", path)...); code != 2 {
		t.Errorf("classical: exit %d, %q; want its one budget exhausted", code, out)
	}
}

// TestProfilesComplete: -cpuprofile and -memprofile write complete
// profiles — gzip streams that read to their end — whether the trace
// holds (exit 0) or not (exit 1).
func TestProfilesComplete(t *testing.T) {
	dir := t.TempDir()
	in := adt.Tag(adt.ProposeInput("a"), "a")
	other := adt.Tag(adt.ProposeInput("b"), "b")
	for _, c := range []struct {
		name string
		tr   trace.Trace
		code int
	}{
		{"holds", trace.Trace{trace.Invoke("a", 1, in), trace.Response("a", 1, in, adt.DecideOutput("a"))}, 0},
		{"violated", trace.Trace{
			trace.Invoke("a", 1, in), trace.Response("a", 1, in, adt.DecideOutput("a")),
			trace.Invoke("b", 1, other), trace.Response("b", 1, other, adt.DecideOutput("b")),
		}, 1},
	} {
		cpu, mem := filepath.Join(dir, c.name+"-cpu.pb.gz"), filepath.Join(dir, c.name+"-mem.pb.gz")
		if out, code := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, writeTrace(t, dir, c.name+".json", c.tr)); code != c.code {
			t.Fatalf("%s: exit %d, want %d (%q)", c.name, code, c.code, out)
		}
		for _, p := range []string{cpu, mem} {
			f, err := os.Open(p)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			zr, err := gzip.NewReader(f)
			if err == nil {
				_, err = io.Copy(io.Discard, zr)
			}
			f.Close()
			if err != nil {
				t.Errorf("%s: %s is not a complete profile: %v", c.name, filepath.Base(p), err)
			}
		}
	}
}

// TestSLinVerdictOrdersFailedInit: a failing interpretation of several
// init actions prints one line per action, in action order, whatever the
// map's iteration order.
func TestSLinVerdictOrdersFailedInit(t *testing.T) {
	res := slin.Result{
		Reason: "no speculative linearization function for some init interpretation",
		FailedInit: map[int]trace.History{
			7: {"p:c"},
			0: {"p:a"},
			3: {"p:b"},
		},
	}
	want := "NOT SLin(2,3): no speculative linearization function for some init interpretation\n" +
		"failing init interpretation:\n" +
		"  action 0 ↦ [p:a]\n" +
		"  action 3 ↦ [p:b]\n" +
		"  action 7 ↦ [p:c]\n"
	for i := 0; i < 20; i++ {
		v := slinVerdict(2, 3, res)
		if v.ok || v.report != want {
			t.Fatalf("report %q, want %q", v.report, want)
		}
	}
}
