package experiments

import (
	"context"
	"fmt"

	"repro/internal/adt"
	"repro/internal/lin"
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/paxos"
	"repro/internal/quorum"
	"repro/internal/trace"
)

func procIDs(prefix string, n int) []msgnet.ProcID {
	ids := make([]msgnet.ProcID, n)
	for i := range ids {
		ids[i] = msgnet.ProcID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return ids
}

func specProtos() []mpcons.PhaseProtocol {
	// The timeout covers the worst-case round trip under the jittered
	// configurations below (2 × MaxDelay = 8), so timer expiries signal
	// faults rather than unlucky jitter.
	return []mpcons.PhaseProtocol{quorum.Protocol{Timeout: 10, Retransmit: 6}, paxos.Protocol{}}
}

func paxosOnly() []mpcons.PhaseProtocol {
	return []mpcons.PhaseProtocol{paxos.Protocol{}}
}

// runConsensus builds and runs one consensus simulation; proposals are
// scheduled by the prepare callback.
func runConsensus(cfg msgnet.Config, nClients, nServers int, protos []mpcons.PhaseProtocol,
	prepare func(w *msgnet.Network, obj *mpcons.Object)) (*mpcons.Object, error) {
	w := msgnet.New(cfg)
	obj, err := mpcons.Build(w, procIDs("c", nClients), procIDs("s", nServers), protos...)
	if err != nil {
		return nil, err
	}
	prepare(w, obj)
	obj.Run(500_000)
	return obj, nil
}

// checkLinearizable verifies the composed object's switch-free trace.
func checkLinearizable(ctx context.Context, obj *mpcons.Object) error {
	plain := obj.Trace().Project(func(a trace.Action) bool { return a.Kind != trace.Swi })
	res, err := lin.Check(ctx, adt.Consensus{}, plain)
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("trace not linearizable: %s", res.Reason)
	}
	return nil
}

// E1FastPathLatency: §2.1's headline numbers — Quorum decides in 2
// message delays; Paxos needs two round trips (4 delays as proposer, plus
// one more for remote learners). Fault-free, contention-free, unit
// delays; latency is exact virtual time.
func E1FastPathLatency(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "fault-free latency in message delays (1 client, unit delay, seed 1)",
		Header: []string{"servers", "Quorum+Backup", "Paxos-only", "paper's claim"},
		Notes: []string{
			"Paper §2.1: the fast path decides in 2 message delays; Paxos has a minimum " +
				"latency of 3 from a proposer's perspective (prepare+promise+accept); our " +
				"measurement counts the full accept acknowledgment, giving 4.",
		},
	}
	for _, servers := range []int{3, 5, 7} {
		var lat [2]msgnet.Time
		for i, protos := range [][]mpcons.PhaseProtocol{specProtos(), paxosOnly()} {
			obj, err := runConsensus(msgnet.Config{Seed: 1}, 1, servers, protos,
				func(w *msgnet.Network, obj *mpcons.Object) {
					obj.ProposeAt("c1", "v", 0)
				})
			if err != nil {
				return t, err
			}
			rs := obj.Results()
			if len(rs) != 1 {
				return t, fmt.Errorf("E1: no decision with %d servers", servers)
			}
			lat[i] = rs[0].Latency()
			if err := checkLinearizable(ctx, obj); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", servers),
			fmt.Sprintf("%d delays", lat[0]),
			fmt.Sprintf("%d delays", lat[1]),
			"2 vs 3+",
		})
	}
	return t, nil
}

// E2ContentionSweep: concurrent proposers under jittered delays. The
// fast path wins at low contention; as contention grows, switches to
// Backup dominate and latency approaches Paxos'.
func E2ContentionSweep(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "contention sweep (3 servers, delays 1–4, seeds 1–30, all ops concurrent)",
		Header: []string{"clients", "mean latency", "fast-path rate", "switch rate", "linearizable"},
		Notes: []string{
			"Shape: monotone latency growth and fast-path decay with contention; every " +
				"run's trace checked linearizable.",
		},
	}
	for _, clients := range []int{1, 2, 4, 8} {
		var totalLat, ops, fast, switched int
		for seed := int64(1); seed <= 30; seed++ {
			obj, err := runConsensus(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 4},
				clients, 3, specProtos(),
				func(w *msgnet.Network, obj *mpcons.Object) {
					for i := 0; i < clients; i++ {
						obj.ProposeAt(msgnet.ProcID(fmt.Sprintf("c%d", i+1)),
							trace.Value(fmt.Sprintf("v%d", i)), msgnet.Time(i%2))
					}
				})
			if err != nil {
				return t, err
			}
			for _, r := range obj.Results() {
				ops++
				totalLat += int(r.Latency())
				if r.Phase == 1 {
					fast++
				}
				if r.Switches > 0 {
					switched++
				}
			}
			if err := checkLinearizable(ctx, obj); err != nil {
				return t, fmt.Errorf("seed %d: %w", seed, err)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", clients),
			f2(float64(totalLat) / float64(ops)),
			pct(fast, ops),
			pct(switched, ops),
			"yes",
		})
	}
	return t, nil
}

// E3FaultInjection: crashes and message loss force the fast path to time
// out; the composition stays safe and live while a server majority is up.
func E3FaultInjection(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "fault injection (2 clients, 5 servers, delays 1–3, seeds 1–20)",
		Header: []string{"crashed", "drop prob", "decided", "fast-path rate", "mean latency", "linearizable"},
		Notes: []string{
			"Crashing any server disables the fast path (it needs accepts from ALL " +
				"servers); the Backup keeps deciding up to 2 of 5 crashes.",
		},
	}
	for _, tc := range []struct {
		crash int
		drop  float64
	}{
		{0, 0}, {1, 0}, {2, 0}, {0, 0.10}, {2, 0.10},
	} {
		var ops, decided, fast, totalLat int
		for seed := int64(1); seed <= 20; seed++ {
			obj, err := runConsensus(
				msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 3, DropProb: tc.drop},
				2, 5, specProtos(),
				func(w *msgnet.Network, obj *mpcons.Object) {
					for i := 0; i < tc.crash; i++ {
						w.Crash(msgnet.ProcID(fmt.Sprintf("s%d", i+1)), msgnet.Time(i))
					}
					obj.ProposeAt("c1", "a", 1)
					obj.ProposeAt("c2", "b", 2)
				})
			if err != nil {
				return t, err
			}
			ops += 2
			for _, r := range obj.Results() {
				decided++
				totalLat += int(r.Latency())
				if r.Phase == 1 {
					fast++
				}
			}
			if err := checkLinearizable(ctx, obj); err != nil {
				return t, fmt.Errorf("crash=%d drop=%.2f seed %d: %w", tc.crash, tc.drop, seed, err)
			}
		}
		meanLat := "n/a"
		if decided > 0 {
			meanLat = f2(float64(totalLat) / float64(decided))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d/5", tc.crash),
			fmt.Sprintf("%.0f%%", tc.drop*100),
			pct(decided, ops),
			pct(fast, decided),
			meanLat,
			"yes",
		})
	}
	return t, nil
}

// E10PhaseChain: three phases (Quorum → Quorum retry → Paxos) composed
// without modifying any of them — the paper's scalability claim (§1, §5.1:
// adding a dimension of speculation is just another phase). Clients
// switch independently; the deciding phase varies with conditions.
func E10PhaseChain(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "three-phase chain Quorum→Quorum→Paxos (3 servers, seeds 1–30)",
		Header: []string{"scenario", "decided", "by phase 1", "by phase 2", "by phase 3", "linearizable"},
		Notes: []string{
			"The second Quorum phase retries the fast path on fresh per-phase server " +
				"state; under pure contention it often absorbs the conflict (switch values " +
				"converge), under crashes it must fall through to Paxos.",
		},
	}
	protos := []mpcons.PhaseProtocol{
		quorum.Protocol{Timeout: 6, Retransmit: 4},
		quorum.Protocol{Timeout: 6, Retransmit: 4},
		paxos.Protocol{},
	}
	scenarios := []struct {
		name  string
		crash int
		delay msgnet.Time
	}{
		{"fault-free sequential", 0, 1},
		{"contention (delays 1–4)", 0, 4},
		{"1 crash + contention", 1, 4},
	}
	for _, sc := range scenarios {
		var byPhase [4]int
		var ops int
		for seed := int64(1); seed <= 30; seed++ {
			obj, err := runConsensus(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: sc.delay}, 3, 3, protos,
				func(w *msgnet.Network, obj *mpcons.Object) {
					for i := 0; i < sc.crash; i++ {
						w.Crash(msgnet.ProcID(fmt.Sprintf("s%d", i+1)), 0)
					}
					stagger := msgnet.Time(0)
					if sc.name == "fault-free sequential" {
						stagger = 10
					}
					for i := 0; i < 3; i++ {
						obj.ProposeAt(msgnet.ProcID(fmt.Sprintf("c%d", i+1)),
							trace.Value(fmt.Sprintf("v%d", i)), msgnet.Time(i)*stagger)
					}
				})
			if err != nil {
				return t, err
			}
			ops += 3
			for _, r := range obj.Results() {
				byPhase[r.Phase]++
			}
			tr := obj.Trace()
			if !tr.PhaseWellFormed(1, 4) {
				return t, fmt.Errorf("E10: trace not (1,4)-well-formed at seed %d", seed)
			}
			if err := checkLinearizable(ctx, obj); err != nil {
				return t, fmt.Errorf("E10 %s seed %d: %w", sc.name, seed, err)
			}
		}
		total := byPhase[1] + byPhase[2] + byPhase[3]
		t.Rows = append(t.Rows, []string{
			sc.name,
			pct(total, ops),
			pct(byPhase[1], total),
			pct(byPhase[2], total),
			pct(byPhase[3], total),
			"yes",
		})
	}
	return t, nil
}
