package smr

import (
	"math/rand"
	"testing"

	"repro/internal/msgnet"
	"repro/internal/workload"
)

// allocBudget is the allocations one landed command may cost on the
// fast-path sharded pipeline, build and checker sessions included:
// measured at 55.2 when msgnet stopped allocating per event and the
// hosts stopped building per message (DESIGN.md, decision 22; 165.0
// before), plus 15%. Allocation counts do not depend on the machine or its load,
// so this holds the line in tier-1 where a wall-clock bound could not.
// Moving it up needs a reason that is written down.
const allocBudget = 63

func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ops = 2000
	per := make([][]Command, 4)
	for _, op := range workload.Keyed(rand.New(rand.NewSource(1)),
		workload.KeyedOpts{Clients: 4, Ops: ops, ReadFrac: 0.3}) {
		per[op.Client] = append(per[op.Client], cmdOf(op))
	}
	clients, servers := ids("c", 4), ids("s", 3)
	var landed int64
	perRun := testing.AllocsPerRun(3, func() {
		w := msgnet.New(msgnet.Config{Seed: 1, MinDelay: 1, MaxDelay: 2})
		sc, err := BuildSharded(w, clients, servers,
			ShardedConfig{Config: benchProto, Shards: 8, OnlineCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range clients {
			sc.SubmitPaced(c, per[i], msgnet.Time(i)*3, 12)
		}
		sc.Run(1 << 40)
		landed = sc.Stats().Landed
	})
	if landed != ops {
		t.Fatalf("landed %d of %d", landed, ops)
	}
	got := perRun / ops
	t.Logf("%.1f allocations per landed command (budget %d)", got, allocBudget)
	if got > allocBudget {
		t.Fatalf("%.1f allocations per landed command, budget is %d", got, allocBudget)
	}
}
