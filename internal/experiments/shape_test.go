package experiments

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// The E12–E19 shape tests run each experiment's row builder at a scale
// that finishes in about a second and apply the same check function the
// full-scale E-function applies to itself (cmd/experiments exits
// non-zero on it). Every assertion is on a deterministic quantity —
// verdicts, node counts, message delays, retries, live heap — never on
// wall time, which only bench/ measures.

func TestE12Shape(t *testing.T) {
	rows, err := E12Rows(context.Background(), []int{1, 4}, 2_000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkShardRows(rows); err != nil {
		t.Error(err)
	}
}

// TestOnlineCheckingThroughputParity is the checker-API-v2 acceptance
// gate for E12: the sharded run with online (streaming) per-key checking
// enabled must complete with the same simulated schedule — hence no worse
// simulated throughput — as the post-hoc baseline, and reach the same
// verdicts. (Checking happens outside the simulated network either way;
// online mode merely overlaps it with the run and drops the post-hoc
// history buffering.)
func TestOnlineCheckingThroughputParity(t *testing.T) {
	cfg := E12Base
	cfg.Shards = 4
	cfg.Commands = 4_000

	post, err := RunSharded(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	online := cfg
	online.Online = true
	onl, err := RunSharded(context.Background(), online)
	if err != nil {
		t.Fatal(err)
	}

	if !post.Linearizable || !onl.Linearizable {
		t.Fatalf("linearizability: post-hoc %v, online %v", post.Linearizable, onl.Linearizable)
	}
	if onl.SimTime != post.SimTime {
		t.Errorf("online checking changed the simulated schedule: %d vs %d delays", onl.SimTime, post.SimTime)
	}
	if onl.CmdsPerDelay < post.CmdsPerDelay {
		t.Errorf("online throughput %.3f cmds/delay below post-hoc baseline %.3f", onl.CmdsPerDelay, post.CmdsPerDelay)
	}
	if onl.KeyHistories != post.KeyHistories || onl.CheckedOps != post.CheckedOps {
		t.Errorf("online checked %d histories/%d ops, post-hoc %d/%d",
			onl.KeyHistories, onl.CheckedOps, post.KeyHistories, post.CheckedOps)
	}
}

// E14Measure itself errors on any classical/new-definition verdict
// disagreement (Theorem 1 on unique-input traces).
func TestE14Shape(t *testing.T) {
	longest := 0
	for _, fam := range E14Families() {
		st, err := E14Measure(context.Background(), fam.F, fam.Traces)
		if err != nil {
			t.Fatalf("%s/%d: %v", fam.Name, fam.Ops, err)
		}
		if st.Traces != len(fam.Traces) {
			t.Errorf("%s/%d: measured %d of %d traces", fam.Name, fam.Ops, st.Traces, len(fam.Traces))
		}
		longest = max(longest, fam.Ops)
	}
	if longest < 512 {
		t.Errorf("the sweep stops at %d-operation traces, want 512", longest)
	}
}

// The degradation-and-recovery half of the shape on the chaos run alone
// is TestChaosRunRecovers; this adds the baseline row and the pair-level
// assertions at the same scale (at 8,000 commands the blackout forces
// no retry — see chaosSmall).
func TestE15Shape(t *testing.T) {
	cfg := chaosSmall()
	rows, err := E15Rows(context.Background(), cfg.Shards, cfg.Commands)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkChaosRows(rows); err != nil {
		t.Error(err)
	}
}

func TestE16Shape(t *testing.T) {
	cfg := E12Base
	cfg.Shards = 4
	cfg.Commands = 12_000
	// ~128-op histories, not E16KeysDivisor: the job here is engine
	// agreement in about a second, not the cost comparison.
	cfg.Keys = cfg.Commands / 128
	d, err := FastpathRows(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFastpathDist(d); err != nil {
		t.Error(err)
	}
}

// E17 is the one experiment that runs real goroutines, so its captured
// overlap depends on how the OS schedules them. The live sessions no
// longer care (the exact engine's width follows the overlap, not how
// long it lasts), but the queue's post-hoc classical pass does: it
// checks the whole unkeyed trace at once, and at 300 operations per
// goroutine it exhausted its budget in about half the runs on a busy
// 2-core box. 8 goroutines × 50 operations keeps that pass to
// milliseconds while all four mutants are still caught within the retry
// rounds, and the deadline turns anything slower into an error that
// carries the checker's reason.
func TestE17Shape(t *testing.T) {
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	hunts, err := E17HuntRows(ctx, 8, 50, 8, E17Rounds, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHuntRows(hunts); err != nil {
		t.Error(err)
	}
	overheads, err := E17OverheadRows(8, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOverheadRows(overheads); err != nil {
		t.Error(err)
	}
	if g, floor := E17Goroutines(), 4*runtime.GOMAXPROCS(0); g < floor {
		t.Errorf("full-scale hunt uses %d goroutines (acceptance floor 4×GOMAXPROCS = %d)", g, floor)
	}
}

// Both arms run scaled down from the table's.
func TestE18Shape(t *testing.T) {
	rows, err := E18StreamMem(context.Background(), E18FullOps/100, E18Checkpoints)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStreamRows(rows, E18Checkpoints); err != nil {
		t.Error(err)
	}
	cmp, err := E18WitnessOffVsOn(context.Background(), E18CompareOps/4)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCompareRows(cmp); err != nil {
		t.Error(err)
	}
}

func TestE19Shape(t *testing.T) {
	rows, err := E19Rows(context.Background(), E19SmokeCommands, 2*E19SmokeCommands)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTxnRows(rows); err != nil {
		t.Error(err)
	}
}
