package main

// metricDef is one named metric of the benchmark: its unit, the module it
// measures, and the end-to-end metric and workload it is expected to move.
// The catalogue is the single list the JSON output, the self-test and
// README.md's metric map are checked against.
type metricDef struct {
	name  string
	unit  string
	layer string // "e2e" for end-to-end metrics, else the repo module
	moves string // end-to-end metric(s) this layer metric should move
	on    string // workload(s) where that shows
}

// deliverKinds are the message kinds whose delivery and wire cost is
// attributed per kind. Route carries routed payloads (cluster batches the
// sender could not address directly, publishes, cancels); Publish is a
// Route whose payload is a PublishMsg.
var deliverKinds = []string{"ClusterQuery", "Batch", "SubResult", "PartialResult", "Route", "Find", "Publish"}

func e2eMetrics() []metricDef {
	return []metricDef{
		{name: "setup_s", unit: "s", layer: "e2e"},
		{name: "goodput_qps", unit: "1/s", layer: "e2e"},
		{name: "cpu_ms_per_query", unit: "ms", layer: "e2e"},
		{name: "msgs_per_query", unit: "msgs", layer: "e2e"},
		{name: "bytes_per_query", unit: "B", layer: "e2e"},
		{name: "success_ratio", unit: "ratio", layer: "e2e"},
		{name: "peak_rss_mb", unit: "MB", layer: "e2e"},
	}
}

func layerMetrics() []metricDef {
	defs := []metricDef{
		{"sfc.clusters_per_query", "count", "sfc", "msgs_per_query", "wide-scan"},
		{"sfc.refine_us_per_query", "us", "sfc", "cpu_ms_per_query", "wide-scan"},
		{"keyspace.region_us_per_query", "us", "keyspace", "cpu_ms_per_query", "wide-scan"},
		{"store.scan_us_per_query", "us", "store", "cpu_ms_per_query, harness.query_p50_ms", "wide-scan"},
		{"store.visited_per_match", "ratio", "store", "cpu_ms_per_query", "wide-scan"},
		{"squid.clusters_processed_per_query", "count", "squid", "cpu_ms_per_query", "wide-scan"},
		{"squid.subtrees_per_query", "count", "squid", "msgs_per_query", "all"},
		{"squid.batched_share", "ratio", "squid", "msgs_per_query", "all"},
		{"squid.cache_hit_ratio", "ratio", "squid", "cpu_ms_per_query, harness.query_p50_ms", "zipf-rw (near 0 on wide-scan)"},
		{"squid.sched_wait_us_mean", "us", "squid", "harness.query_p99_ms, goodput_qps", "zipf-rw"},
		{"squid.shed_ratio", "ratio", "squid", "harness.query_p99_ms, goodput_qps", "zipf-rw"},
		{"squid.redispatches_per_query", "count", "squid", "success_ratio, goodput_qps", "des-churn"},
		{"squid.stream_cancels_per_query", "count", "squid", "msgs_per_query", "des-churn"},
		{"squid.deliver_busy_max_share", "ratio", "delivery", "harness.query_p99_ms, goodput_qps", "zipf-rw"},
	}
	for _, k := range deliverKinds {
		defs = append(defs, metricDef{"squid.deliver_us." + k, "us", "delivery", "harness.query_p50_ms", "zipf-rw, wide-scan"})
	}
	for _, k := range deliverKinds {
		defs = append(defs,
			metricDef{"wire.bytes_per_msg." + k, "B", "wire", "bytes_per_query", "wide-scan"},
			metricDef{"wire.encode_ns." + k, "ns", "wire", "cpu_ms_per_query", "wide-scan"},
			metricDef{"wire.decode_ns." + k, "ns", "wire", "cpu_ms_per_query", "wide-scan"})
	}
	defs = append(defs, []metricDef{
		{"transport.frames_per_flush", "ratio", "transport", "cpu_ms_per_query", "zipf-rw"},
		{"transport.send_latency_us_mean", "us", "transport", "harness.query_p50_ms", "zipf-rw, wide-scan"},
		{"transport.send_errors", "count", "transport", "success_ratio", "zipf-rw, wide-scan"},
		{"transport.dials", "count", "transport", "setup_s", "zipf-rw, wide-scan"},
		{"chord.lookup_hops_mean", "hops", "chord", "msgs_per_query", "zipf-rw, des-churn"},
		{"chord.route_forwards_per_query", "count", "chord", "msgs_per_query", "zipf-rw, des-churn"},
		{"chord.rpc_retries", "count", "chord", "success_ratio", "des-churn"},
		{"chord.rpc_failures", "count", "chord", "success_ratio", "des-churn"},
		{"chord.hard_violations", "count", "chord", "correctness (must be 0)", "des-churn"},
		{"dessim.events", "count", "dessim", "goodput_qps, cpu_ms_per_query", "des-churn"},
		{"dessim.events_per_s", "1/s", "dessim", "goodput_qps, cpu_ms_per_query", "des-churn"},
		{"dessim.virtual_s", "s", "dessim", "harness.query_p50_ms", "des-churn"},
		{"dessim.msgs_dropped", "count", "dessim", "success_ratio", "des-churn"},
		{"dessim.storm_wall_s", "s", "dessim", "goodput_qps", "des-churn"},
		{"dessim.replay_match", "count", "dessim", "pinned replays that matched their reference", "des-churn"},
		{"runtime.allocs_per_query", "count", "runtime", "cpu_ms_per_query, goodput_qps", "all"},
		{"runtime.gc_cpu_share", "ratio", "runtime", "cpu_ms_per_query, goodput_qps", "all"},
		{"harness.fail_ratio", "ratio", "harness", "success_ratio", "all"},
		{"harness.query_p50_ms", "ms", "harness", "nominal-phase median latency (probes on des-churn)", "all"},
		{"harness.query_p99_ms", "ms", "harness", "nominal-phase tail latency (probes on des-churn)", "all"},
		{"harness.gen_late_p99_ms", "ms", "harness", "validity of the latency figures", "zipf-rw, wide-scan"},
		{"harness.gen_late_max_ms", "ms", "harness", "validity of the latency figures", "zipf-rw, wide-scan"},
		{"harness.arrivals_due", "count", "harness", "validity of goodput_qps", "zipf-rw, wide-scan"},
		{"harness.arrivals_submitted", "count", "harness", "validity of goodput_qps", "zipf-rw, wide-scan"},
		{"harness.trace_overhead_cpu_pct", "%", "harness", "cpu_ms_per_query", "zipf-rw, wide-scan"},
		{"harness.trace_overhead_p50_pct", "%", "harness", "harness.query_p50_ms", "zipf-rw, wide-scan"},
	}...)
	return defs
}
