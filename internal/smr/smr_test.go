package smr

import (
	"fmt"
	"testing"

	"repro/internal/msgnet"
)

func ids(prefix string, n int) []msgnet.ProcID {
	out := make([]msgnet.ProcID, n)
	for i := range out {
		out[i] = msgnet.ProcID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

// build wires a one-shard cluster that keeps its results.
func build(t *testing.T, cfg msgnet.Config, smrCfg Config, nc, ns int) (*msgnet.Network, *ShardedCluster) {
	t.Helper()
	w := msgnet.New(cfg)
	cl, err := BuildSharded(w, ids("c", nc), ids("s", ns), ShardedConfig{Config: smrCfg, RetainResults: true})
	if err != nil {
		t.Fatal(err)
	}
	return w, cl
}

// A lone client's sequential submissions each land in 2 message delays
// on the fast path, one slot apiece.
func TestSequentialFastPath(t *testing.T) {
	_, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: true}, 1, 3)
	for i := 0; i < 5; i++ {
		cl.SubmitAt("c1", SetCmd("k", fmt.Sprintf("v%d", i)), msgnet.Time(i*10))
	}
	cl.Run(10000)
	rs := cl.Results()
	if len(rs) != 5 {
		t.Fatalf("landed %d/5: %v", len(rs), rs)
	}
	for i, r := range rs {
		if r.Latency() != 2 {
			t.Fatalf("submission %d latency %d, want 2 (fast path)", i, r.Latency())
		}
		if r.Slot != i || r.Attempts != 1 || r.Switches != 0 {
			t.Fatalf("submission %d placed oddly: %+v", i, r)
		}
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	kv := ApplyKV(cl.Log(0, "c1"))
	if kv["k"] != "v4" {
		t.Fatalf("kv = %v", kv)
	}
}

// The Paxos-only baseline needs more than 2 delays even fault-free.
func TestPaxosBaselineSlower(t *testing.T) {
	_, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: false}, 1, 3)
	cl.SubmitAt("c1", SetCmd("k", "v"), 0)
	cl.Run(10000)
	rs := cl.Results()
	if len(rs) != 1 {
		t.Fatalf("landed %d/1", len(rs))
	}
	if rs[0].Latency() < 4 {
		t.Fatalf("paxos baseline latency %d; expected ≥ 4 (two round trips)", rs[0].Latency())
	}
}

// Concurrent clients contend for slots; all commands land exactly once
// and logs agree.
func TestContendingClientsAllLand(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		_, cl := build(t, msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 3},
			Config{FastPath: true}, 3, 3)
		total := 0
		for i, c := range []msgnet.ProcID{"c1", "c2", "c3"} {
			for j := 0; j < 3; j++ {
				cl.SubmitAt(c, SetCmd(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d-%d", i, j)), msgnet.Time(j*3))
				total++
			}
		}
		cl.Run(200000)
		rs := cl.Results()
		if len(rs) != total {
			t.Fatalf("seed %d: landed %d/%d", seed, len(rs), total)
		}
		if err := cl.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Minority server crashes: the composition still lands all commands.
func TestCrashTolerance(t *testing.T) {
	w, cl := build(t, msgnet.Config{Seed: 7, MinDelay: 1, MaxDelay: 2},
		Config{FastPath: true}, 2, 5)
	w.Crash("s1", 5)
	w.Crash("s2", 12)
	for j := 0; j < 3; j++ {
		cl.SubmitAt("c1", SetCmd("a", fmt.Sprintf("x%d", j)), msgnet.Time(j*4))
		cl.SubmitAt("c2", SetCmd("b", fmt.Sprintf("y%d", j)), msgnet.Time(j*4+1))
	}
	cl.Run(200000)
	rs := cl.Results()
	if len(rs) != 6 {
		t.Fatalf("landed %d/6 under minority crashes", len(rs))
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Message loss with retransmission: liveness and consistency hold.
func TestLossTolerance(t *testing.T) {
	_, cl := build(t, msgnet.Config{Seed: 11, MinDelay: 1, MaxDelay: 3, DropProb: 0.15},
		Config{FastPath: true, Retransmit: 6}, 2, 3)
	for j := 0; j < 3; j++ {
		cl.SubmitAt("c1", SetCmd("a", fmt.Sprintf("x%d", j)), msgnet.Time(j*5))
		cl.SubmitAt("c2", SetCmd("b", fmt.Sprintf("y%d", j)), msgnet.Time(j*5+2))
	}
	cl.Run(500000)
	if len(cl.Results()) != 6 {
		t.Fatalf("landed %d/6 under loss", len(cl.Results()))
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A client that lost its slot to a fill moves to its next owned slot and
// lands there. c1's links to the servers are slow, so c2, which wins slot
// 1 at once, is blocked on c1's slot 0 for longer than the fill deadline
// and proposes the no-op there while c1's command is still arriving.
func TestSlotConflictRetries(t *testing.T) {
	sawRetry := false
	for seed := int64(1); seed <= 20 && !sawRetry; seed++ {
		w, cl := build(t, msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 4},
			Config{FastPath: true}, 2, 3)
		for _, s := range ids("s", 3) {
			w.SetLinkRule("c1", s, msgnet.LinkRule{ExtraMinDelay: 8, ExtraMaxDelay: 24})
		}
		cl.SubmitAt("c1", SetCmd("k", "a"), 0)
		cl.SubmitAt("c2", SetCmd("k", "b"), 0)
		cl.Run(100000)
		for _, r := range cl.Results() {
			if r.Attempts > 1 {
				sawRetry = true
				if r.Client != "c1" || r.Slot < 2 || r.Slot%2 != 0 {
					t.Fatalf("seed %d: %+v: only c1 can lose its slot, and only to one of its own", seed, r)
				}
			}
		}
		if err := cl.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(cl.Results()) != 2 {
			t.Fatalf("seed %d: landed %d/2", seed, len(cl.Results()))
		}
	}
	if !sawRetry {
		t.Fatal("no seed exercised a slot conflict retry")
	}
}

func TestKVApply(t *testing.T) {
	log := map[int]Command{
		0: SetCmd("a", "1"),
		1: SetCmd("b", "2"),
		2: SetCmd("a", "3"),
		3: DelCmd("b"),
		4: "garbage",
	}
	kv := ApplyKV(log)
	if kv["a"] != "3" {
		t.Fatalf("kv[a] = %q", kv["a"])
	}
	if _, ok := kv["b"]; ok {
		t.Fatal("deleted key present")
	}
}

func TestBuildValidation(t *testing.T) {
	w := msgnet.New(msgnet.Config{Seed: 1})
	if _, err := BuildSharded(w, nil, ids("s", 3), ShardedConfig{}); err == nil {
		t.Fatal("empty clients must be rejected")
	}
}
