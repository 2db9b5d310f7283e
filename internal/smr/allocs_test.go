package smr

import (
	"runtime"
	"testing"
)

// The allocation budgets hold what one landed log entry may cost on the
// two pinned shapes (pins_test.go), build and checker sessions included,
// in allocations and in bytes (runtime.MemStats' Mallocs and TotalAlloc
// around one run after a warm-up run). Neither depends on the machine or its load, so they hold the line
// in tier-1 where a wall-clock bound could not. Each budget is a measured
// value plus 15%, taken since slot state lives in windows and the
// recorder checks submissions by slot ownership (DESIGN.md, decision 27).
// Moving one up needs a reason that is written down.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	kv, txn := kvFeeds(2000), txnFaultsFeeds()
	cases := []struct {
		name   string
		budget float64 // allocations per landed log entry
		bytes  float64 // bytes per landed log entry
		want   int64   // log entries landed
		run    func(t *testing.T) int64
	}{
		// 4.2 measured; 4.5 while slot state lived in maps (budget 5.2),
		// 5.5 while the recorder built each set's and get's
		// register input twice, at start and at learn (budget 6.3), 17.0
		// while messages were boxed (budget 19.6), 22.8 before decision
		// 30, 55.0 before decision 27, 165.0 before decision 22. Bytes:
		// 582 measured; 690 while the recorder kept every command submitted
		// in a map for the whole run and slot state lived in maps.
		{"smr-kv", 4.8, 669, 2000, func(t *testing.T) int64 {
			_, sc, _ := kvShape(t, kv)
			return sc.Stats().Landed
		}},
		// Retries, durable recovery, rolling coordinator crashes and 2PC:
		// 12.1 measured; 12.9 while slot state lived in maps (budget
		// 14.8), 20.7 while TxnKV decoded its state into a map and
		// 2PC log entries were split apart at learn (budget 23.8), 46.6
		// while messages and durable snapshots were boxed (budget 53.6),
		// 39.2 before decision 30 (76.4 before decision 27). The rise at decision 30 is this scale's: its
		// rolling restarts keep one of the six clients down for most of the
		// run, so nearly every log entry lands above a slot of the crashed
		// client that a blocked client must fill through a consensus round
		// (1 215 slots filled for 1 466 entries), and each filled slot
		// builds server state on all three replicas. bench's full-scale
		// shape, where crashes are rare, went from 70.3 to 61.4 allocations
		// per item. Bytes: 2 902 measured; 3 597 while slot state lived in
		// maps and a replica's durable snapshots in a map of their own
		// (they now live in the server slot, allocated with it).
		{"smr-txn-faults", 13.9, 3337, 1466, func(t *testing.T) int64 {
			_, tc, _ := txnFaultsShape(t, txn)
			return tc.Stats().Landed
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			c.run(t) // warm up, as testing.AllocsPerRun does
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			landed := c.run(t)
			runtime.ReadMemStats(&after)
			if landed != c.want {
				t.Fatalf("landed %d of %d log entries", landed, c.want)
			}
			allocs := float64(after.Mallocs-before.Mallocs) / float64(landed)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(landed)
			t.Logf("%.1f allocations and %.0f bytes per landed log entry (budgets %.1f and %.0f)", allocs, bytes, c.budget, c.bytes)
			if allocs > c.budget {
				t.Errorf("%.1f allocations per landed log entry, budget is %.1f", allocs, c.budget)
			}
			if bytes > c.bytes {
				t.Errorf("%.0f bytes per landed log entry, budget is %.0f", bytes, c.bytes)
			}
		})
	}
}
