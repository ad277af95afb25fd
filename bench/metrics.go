package main

// metricDef is one named metric: what BENCHMARK.json declares and what
// every run prints. bound is the share of the parent's median by which
// an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics explain and have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the three paths sees, per workload. The
// timing bounds are some three times the run-to-run spread measured on
// the 2-core VM (up to 8 % for wall and 11 % for CPU time after
// calibration, README "Baseline"), not the tenth one would like: a
// bound inside the noise resolves nothing. The allocation counters
// repeat to four digits and carry the tight bounds.
// fail_ratio is not listed because it is 0 on every accepted run; it is
// printed, and is failed ÷ attempted of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"pkts_per_s", "pkts/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.02},
	{"alloc_bytes_per_pkt", "B", "lower", 0.05},
}

// perLayer is the traced run's budget, one block per layer (this
// repository's packages). A workload fills in the layers it goes
// through; a run of one workload borrows the rest from the others.
var perLayer = []metricDef{
	{name: "pcap.decode_ms", unit: "ms", better: "lower"},
	{name: "pcap.decode_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "pcap.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "pcap.stream_drain_ms", unit: "ms", better: "lower"},
	{name: "pcap.allocs_per_pkt", unit: "count", better: "lower"},

	{name: "trace.normalize_ms", unit: "ms", better: "lower"},

	{name: "metrics.compare_ms", unit: "ms", better: "lower"},
	{name: "metrics.compare_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "metrics.tracesums_ms", unit: "ms", better: "lower"},
	{name: "metrics.compare_windowed_ms", unit: "ms", better: "lower"},
	{name: "metrics.moved_pkts", unit: "count", better: "lower"},
	{name: "metrics.common_pkts", unit: "count", better: "higher"},
	{name: "metrics.compare_allocs", unit: "count", better: "lower"},

	{name: "consistency.report_ms", unit: "ms", better: "lower"},
	{name: "consistency.render_ms", unit: "ms", better: "lower"},
	{name: "consistency.budget_gap_pct", unit: "%", better: "lower"},
	{name: "consistency.alloc_gap_pct", unit: "%", better: "lower"},

	{name: "stream.run_ms", unit: "ms", better: "lower"},
	{name: "stream.engine_ms", unit: "ms", better: "lower"},
	{name: "stream.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "stream.windows_closed", unit: "count", better: "higher"},
	{name: "stream.peak_shard_entries", unit: "count", better: "lower"},
	{name: "stream.peak_open_windows", unit: "count", better: "lower"},
	{name: "stream.shard_queue_peak_records", unit: "count", better: "lower"},
	{name: "stream.watermark_lag_peak_windows", unit: "count", better: "lower"},
	{name: "stream.pairs_matched", unit: "count", better: "higher"},
	{name: "stream.pairs_orphaned", unit: "count", better: "lower"},
	{name: "stream.cpu_over_wall", unit: "ratio", better: "lower"},

	{name: "experiments.run_ms", unit: "ms", better: "lower"},
	{name: "experiments.compare_ms", unit: "ms", better: "lower"},
	{name: "sim.run_ms", unit: "ms", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "nic.ns_per_pkt", unit: "ns", better: "lower"},
	{name: "nic.events_per_pkt", unit: "count", better: "lower"},
	{name: "nic.tx_pkts", unit: "count", better: "higher"},
	{name: "nic.doorbells", unit: "count", better: "lower"},
	{name: "netsw.forwarded", unit: "count", better: "higher"},
	{name: "netsw.egress_drops", unit: "count", better: "lower"},
	{name: "core.recorded_pkts", unit: "count", better: "higher"},
	{name: "core.replayed_pkts", unit: "count", better: "higher"},
	{name: "core.capture_received", unit: "count", better: "higher"},

	{name: "psim.handoffs", unit: "count", better: "lower"},
	{name: "psim.null_messages", unit: "count", better: "lower"},
	{name: "psim.useful_msg_ratio", unit: "ratio", better: "higher"},
	{name: "psim.stall_breaks", unit: "count", better: "lower"},
	{name: "psim.push_blocks", unit: "count", better: "lower"},
	{name: "psim.queue_depth_peak", unit: "count", better: "lower"},
	{name: "psim.cpu_over_wall", unit: "ratio", better: "lower"},
	{name: "psim.slowdown_vs_seq", unit: "ratio", better: "lower"},

	{name: "serve.post_ms", unit: "ms", better: "lower"},
	{name: "serve.wait_ms", unit: "ms", better: "lower"},
	{name: "serve.render_ms", unit: "ms", better: "lower"},
	{name: "serve.session_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.session_tail_ms", unit: "ms", better: "lower"},
	{name: "serve.session_tail_pct", unit: "%", better: "higher"},
	{name: "serve.sessions_per_s", unit: "1/s", better: "higher"},
	{name: "serve.admitted_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "serve.polls_per_session", unit: "count", better: "lower"},
	{name: "serve.shed_429", unit: "count", better: "lower"},
	{name: "serve.retained_kb_per_session", unit: "kB", better: "lower"},
	{name: "serve.client_ms", unit: "ms", better: "lower"},

	{name: "trace.op_ms", unit: "ms", better: "lower"},
	{name: "trace.layers_ms", unit: "ms", better: "lower"},
	{name: "trace.budget_gap_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},

	{name: "host.calib_ms", unit: "ms", better: "lower"},
	{name: "host.nproc", unit: "count", better: "higher"},
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.tmpfs", unit: "count", better: "higher"},
	{name: "host.footprint_mb", unit: "MB", better: "lower"},
	{name: "host.leaked_goroutines", unit: "count", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
}
