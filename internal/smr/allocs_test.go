package smr

import "testing"

// The allocation budgets hold what one landed log entry may cost on the
// two pinned shapes (pins_test.go), build and checker sessions included.
// Allocation counts do not depend on the machine or its load, so they
// hold the line in tier-1 where a wall-clock bound could not. Each budget
// is a measured count plus 15%: smr-kv's since the recorder builds each
// register input once, smr-txn-faults' since TxnKV reads its state in
// place and 2PC log entries parse without splitting (DESIGN.md, decision
// 18). Moving one up needs a
// reason that is written down.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	kv, txn := kvFeeds(2000), txnFaultsFeeds()
	cases := []struct {
		name   string
		budget float64
		want   int64 // log entries landed
		run    func(t *testing.T) int64
	}{
		// 4.5 measured; 5.5 while the recorder built each set's and get's
		// register input twice, at start and at learn (budget 6.3), 17.0
		// while messages were boxed (budget 19.6), 22.8 before decision
		// 30, 55.0 before decision 27, 165.0 before decision 22.
		{"smr-kv", 5.2, 2000, func(t *testing.T) int64 {
			_, sc, _ := kvShape(t, kv)
			return sc.Stats().Landed
		}},
		// Retries, durable recovery, rolling coordinator crashes and 2PC:
		// 12.9 measured; 20.7 while TxnKV decoded its state into a map and
		// 2PC log entries were split apart at learn (budget 23.8), 46.6
		// while messages and durable snapshots were boxed (budget 53.6),
		// 39.2 before decision 30 (76.4 before decision 27). The rise at decision 30 is this scale's: its
		// rolling restarts keep one of the six clients down for most of the
		// run, so nearly every log entry lands above a slot of the crashed
		// client that a blocked client must fill through a consensus round
		// (1 215 slots filled for 1 466 entries), and each filled slot
		// builds server state on all three replicas. bench's full-scale
		// shape, where crashes are rare, went from 70.3 to 61.4 allocations
		// per item.
		{"smr-txn-faults", 14.8, 1466, func(t *testing.T) int64 {
			_, tc, _ := txnFaultsShape(t, txn)
			return tc.Stats().Landed
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var landed int64
			perRun := testing.AllocsPerRun(3, func() { landed = c.run(t) })
			if landed != c.want {
				t.Fatalf("landed %d of %d log entries", landed, c.want)
			}
			got := perRun / float64(landed)
			t.Logf("%.1f allocations per landed log entry (budget %.1f)", got, c.budget)
			if got > c.budget {
				t.Fatalf("%.1f allocations per landed log entry, budget is %.1f", got, c.budget)
			}
		})
	}
}
