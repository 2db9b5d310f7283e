package main

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer
// list. The tables below are what the driver emits; a test holds them
// equal to BENCHMARK.json.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics the acceptance pipeline bounds; every workload
// reports all of them. Bounds come from the noise study (NOISE.md): three
// times the widest quartile spread or gap seen over the four workloads,
// rounded up, and never above the 25% the contract allows. The timed
// metrics and the resident set sit at that cap: their spread has passed
// a third of it (NOISE-spell.md, and hunt-live's resident set in NOISE.md).
var endToEnd = []metricSpec{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_s_per_mop", "s/Mop", "lower", 0.25},
	{"allocs_per_op", "allocs/op", "lower", 0.10},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A workload in which a layer is absent reports 0 for its metrics.
var perLayer = []metricSpec{
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},

	{Name: "msgnet.sent_per_op", Unit: "msgs/op", Better: "lower"},
	{Name: "msgnet.delivered_per_op", Unit: "msgs/op", Better: "lower"},
	{Name: "msgnet.dropped", Unit: "count", Better: "lower"},
	{Name: "msgnet.duplicated", Unit: "count", Better: "lower"},
	{Name: "msgnet.sim_delays", Unit: "delays", Better: "lower"},
	{Name: "msgnet.digest_match", Unit: "bool", Better: "higher"},
	{Name: "msgnet.echo_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "msgnet.est_share", Unit: "share", Better: "lower"},

	{Name: "quorum.fast_path_share", Unit: "share", Better: "higher"},
	{Name: "paxos.switches_per_op", Unit: "1/op", Better: "lower"},
	{Name: "smr.attempts_per_op", Unit: "1/op", Better: "lower"},
	{Name: "smr.retries_per_op", Unit: "1/op", Better: "lower"},
	{Name: "smr.protocol_est_s", Unit: "s", Better: "lower"},
	{Name: "smr.commit_p50_delays", Unit: "delays", Better: "lower"},
	{Name: "smr.commit_p99_delays", Unit: "delays", Better: "lower"},

	{Name: "smr.build_s", Unit: "s", Better: "lower"},
	{Name: "smr.submit_s", Unit: "s", Better: "lower"},
	{Name: "smr.run_s", Unit: "s", Better: "lower"},
	{Name: "smr.run_nocheck_s", Unit: "s", Better: "lower"},
	{Name: "smr.consistency_s", Unit: "s", Better: "lower"},
	{Name: "smr.landed", Unit: "count", Better: "higher"},
	{Name: "smr.max_stall_delays", Unit: "delays", Better: "lower"},
	{Name: "smr.txn.started", Unit: "count", Better: "higher"},
	{Name: "smr.txn.commit_share", Unit: "share", Better: "higher"},
	{Name: "smr.txn.abort_conflict", Unit: "count", Better: "lower"},
	{Name: "smr.txn.abort_condition", Unit: "count", Better: "lower"},
	{Name: "smr.txn.abort_recovery", Unit: "count", Better: "lower"},
	{Name: "smr.txn.log_entries_per_item", Unit: "1/op", Better: "lower"},
	{Name: "faults.crashes", Unit: "count", Better: "higher"},

	{Name: "lin.feed_s", Unit: "s", Better: "lower"},
	{Name: "lin.feed_share", Unit: "share", Better: "lower"},
	{Name: "lin.verdict_s", Unit: "s", Better: "lower"},
	{Name: "lin.key_histories", Unit: "count", Better: "higher"},
	{Name: "lin.checked_ops", Unit: "count", Better: "higher"},
	{Name: "lin.nodes_per_op", Unit: "nodes/op", Better: "lower"},
	{Name: "lin.fast.replay_ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "lin.component.count", Unit: "count", Better: "lower"},
	{Name: "lin.component.ops", Unit: "count", Better: "lower"},
	{Name: "lin.component.largest_ops", Unit: "count", Better: "lower"},
	{Name: "lin.fastpath_keys", Unit: "count", Better: "higher"},

	{Name: "lin.session.feed_p50_us", Unit: "us", Better: "lower"},
	{Name: "lin.session.feed_p99_us", Unit: "us", Better: "lower"},
	{Name: "lin.session.feed_max_us", Unit: "us", Better: "lower"},
	{Name: "lin.session.nodes_per_op", Unit: "nodes/op", Better: "lower"},
	{Name: "lin.session.pruned_per_op", Unit: "1/op", Better: "higher"},
	{Name: "lin.session.live_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "lin.session.half_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lin.session.us_per_op.k1n4", Unit: "us/op", Better: "lower"},
	{Name: "lin.session.us_per_op.k1n16", Unit: "us/op", Better: "lower"},
	{Name: "lin.session.us_per_op.k1n32", Unit: "us/op", Better: "lower"},
	{Name: "lin.session.us_per_op.k2n4", Unit: "us/op", Better: "lower"},
	{Name: "lin.session.us_per_op.k2n8", Unit: "us/op", Better: "lower"},
	{Name: "lin.session.us_per_op.k3n4", Unit: "us/op", Better: "lower"},

	{Name: "capture.map.hunt_s", Unit: "s", Better: "lower"},
	{Name: "capture.map.check_s", Unit: "s", Better: "lower"},
	{Name: "capture.map.raw_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "capture.map.captured_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "capture.mutex.hunt_s", Unit: "s", Better: "lower"},
	{Name: "capture.mutex.check_s", Unit: "s", Better: "lower"},
	{Name: "capture.mutex.raw_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "capture.mutex.captured_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "capture.queue.hunt_s", Unit: "s", Better: "lower"},
	{Name: "capture.queue.check_s", Unit: "s", Better: "lower"},
	{Name: "capture.queue.raw_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "capture.queue.captured_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "capture.record_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "capture.drain_ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "capture.nodes_per_action", Unit: "nodes/op", Better: "lower"},
	{Name: "capture.empty_deqs", Unit: "count", Better: "lower"},

	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_live_end_mb", Unit: "MiB", Better: "lower"},
	{Name: "bench.rep_spread", Unit: "share", Better: "lower"},
	{Name: "bench.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.calib_drift", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
}
