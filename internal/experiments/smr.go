package experiments

import (
	"context"
	"fmt"

	"repro/internal/msgnet"
	"repro/internal/smr"
)

// E9SMRThroughput: the end-to-end system claim — speculative SMR gives
// fast-path latency in the common case and degrades gracefully, while
// staying exactly as safe as the Paxos-only baseline.
func E9SMRThroughput(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "SMR: speculative vs Paxos-only (3 servers, 24 commands/client, seeds 1–10)",
		Header: []string{"scenario", "variant", "mean latency", "switches/cmd", "landed", "consistent"},
		Notes: []string{
			"Sequential = one client; contended = 3 clients submitting concurrently; " +
				"crash = 1 of 3 servers down from t=0 (fast path cannot complete, every " +
				"slot falls back). Latency in message delays. E12 scales this workload " +
				"to millions of commands across hash-partitioned shards.",
		},
	}
	type scen struct {
		name    string
		clients int
		crash   int
		jitter  msgnet.Time
		stagger msgnet.Time
	}
	scenarios := []scen{
		{"sequential", 1, 0, 1, 6},
		{"contended", 3, 0, 3, 0},
		{"1/3 crashed", 1, 1, 1, 6},
	}
	const perClient = 24
	for _, sc := range scenarios {
		for _, variant := range []struct {
			name string
			fast bool
		}{{"speculative", true}, {"paxos-only", false}} {
			var totalLat, switches, landed, expected int
			consistent := true
			for seed := int64(1); seed <= 10; seed++ {
				w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: sc.jitter})
				clients := procIDs("c", sc.clients)
				cl, err := smr.BuildSharded(w, clients, procIDs("s", 3), smr.ShardedConfig{
					Config:        smr.Config{FastPath: variant.fast, QuorumTimeout: 6, Retransmit: 4},
					RetainResults: true,
				})
				if err != nil {
					return t, err
				}
				for i := 0; i < sc.crash; i++ {
					w.Crash(msgnet.ProcID(fmt.Sprintf("s%d", i+1)), 0)
				}
				for ci, c := range clients {
					for j := 0; j < perClient; j++ {
						cmd := smr.SetCmd(fmt.Sprintf("k%d", ci), fmt.Sprintf("v%d-%d-%d", ci, j, seed))
						cl.SubmitAt(c, cmd, msgnet.Time(j)*sc.stagger)
						expected++
					}
				}
				cl.Run(1_000_000)
				for _, r := range cl.Results() {
					landed++
					totalLat += int(r.Latency())
					switches += r.Switches
				}
				if err := cl.CheckConsistency(); err != nil {
					consistent = false
				}
			}
			t.Rows = append(t.Rows, []string{
				sc.name, variant.name,
				f2(float64(totalLat) / float64(max(landed, 1))),
				f2(float64(switches) / float64(max(landed, 1))),
				pct(landed, expected),
				yesNo(consistent),
			})
		}
	}
	return t, nil
}
