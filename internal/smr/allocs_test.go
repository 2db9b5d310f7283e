package smr

import "testing"

// The allocation budgets hold what one landed log entry may cost on the
// two pinned shapes (pins_test.go), build and checker sessions included.
// Allocation counts do not depend on the machine or its load, so they
// hold the line in tier-1 where a wall-clock bound could not. Each budget
// is the count measured when the sharded pipeline stopped building
// per-slot objects — recycled slot instances and server slots, shared
// reply envelopes, timer names built once per client (DESIGN.md,
// decision 27) — plus 15%. Moving one up needs a reason that is written
// down.
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
		// 22.8 measured; 55.0 before decision 27, 165.0 before decision 22.
		{"smr-kv", 26.2, 2000, func(t *testing.T) int64 {
			_, sc, _ := kvShape(t, kv)
			return sc.Stats().Landed
		}},
		// Retries, durable recovery, rolling coordinator crashes and 2PC:
		// 39.2 measured; 76.4 before decision 27.
		{"smr-txn-faults", 45.1, 1466, func(t *testing.T) int64 {
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
