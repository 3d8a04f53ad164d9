package main

// The benchmark's names: workloads, end-to-end metrics (with unit,
// direction and regression bound) and per-layer metrics. BENCHMARK.json
// at the repository root repeats them for the driver; bench_test.go
// fails when the two disagree.

// metricKind says which clock a number was read from: the simulator's
// wall clock and allocator (host, noisy) or the modelled CAN segment
// (virtual, exact for a fixed seed).
type metricKind string

const (
	host    metricKind = "host"
	virtual metricKind = "virtual"
)

// e2eMetric is one end-to-end metric of BENCHMARK.json.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Kind   metricKind
}

// endToEnd lists the end-to-end metrics every workload reports. Each is
// defined and non-zero on every workload; the class-specific virtual
// results live in the per-layer list under vt.* (see README.md).
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, host},
	{"frames_per_s", "1/s", "higher", 0.25, host},
	{"allocs_per_frame", "allocs/frame", "lower", 0.05, host},
	{"bytes_per_frame", "B/frame", "lower", 0.05, host},
	{"delivered_ratio", "ratio", "higher", 0.03, virtual},
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// perLayer lists the traced-run metrics in printing order. Counts and
// vt.* values are virtual (exact for a seed); *_ns*, *_share, *_ratio
// and go.* are host numbers.
var perLayer = []layerMetric{
	{"sim.steps", "count", "lower"},
	{"sim.steps_per_frame", "steps/frame", "lower"},
	{"sim.heap_high_water", "count", "lower"},
	{"sim.ns_per_step_isolated", "ns", "lower"},
	{"sim.share", "ratio", "lower"},
	{"sim.speedup", "x", "higher"},
	{"sim.probe_heap_ns", "ns", "lower"},
	{"sim.probe_heap_ops", "count", "lower"},

	{"can.frames_ok", "count", "higher"},
	{"can.frames_error", "count", "lower"},
	{"can.arb_rounds", "count", "lower"},
	{"can.id_rewrites", "count", "lower"},
	{"can.bus_utilization", "ratio", "higher"},
	{"can.wirebits_ns_per_frame_isolated", "ns", "lower"},
	{"can.bus_ns_per_frame_isolated", "ns", "lower"},
	{"can.bus_allocs_per_frame_isolated", "allocs/frame", "lower"},
	{"can.share", "ratio", "lower"},
	{"can.probe_arbitration_ns", "ns", "lower"},
	{"can.probe_codec_ns", "ns", "lower"},
	{"can.probe_codec_ops", "count", "lower"},

	{"core.hrt.published", "count", "higher"},
	{"core.hrt.delivered", "count", "higher"},
	{"core.hrt.publish_ns_p50", "ns", "lower"},
	{"core.hrt.publish_ns_p99", "ns", "lower"},
	{"core.srt.published", "count", "higher"},
	{"core.srt.delivered", "count", "higher"},
	{"core.srt.publish_ns_p50", "ns", "lower"},
	{"core.srt.publish_ns_p99", "ns", "lower"},
	{"core.nrt.published", "count", "higher"},
	{"core.nrt.delivered", "count", "higher"},
	{"core.nrt.publish_ns_p50", "ns", "lower"},
	{"core.nrt.publish_ns_p99", "ns", "lower"},
	{"core.hrt.slots_fired", "count", "higher"},
	{"core.hrt.slots_unused", "count", "lower"},
	{"core.hrt.copies_suppressed", "count", "higher"},
	{"core.hrt.redundant_copies", "count", "lower"},
	{"core.srt.promotions", "count", "lower"},
	{"core.srt.deadline_missed", "count", "lower"},
	{"core.srt.expired", "count", "lower"},
	{"core.nrt.frag_errors", "count", "lower"},
	{"core.overflows", "count", "lower"},
	{"core.probe_enqueue_ns.hrt", "ns", "lower"},
	{"core.probe_enqueue_ns.srt", "ns", "lower"},
	{"core.probe_enqueue_ns.nrt", "ns", "lower"},
	{"core.probe_dispatch_ns.hrt", "ns", "lower"},
	{"core.probe_dispatch_ns.srt", "ns", "lower"},
	{"core.probe_dispatch_ns.nrt", "ns", "lower"},

	{"edf.calls", "count", "lower"},
	{"edf.priofor_ns_isolated", "ns", "lower"},

	{"frag.messages", "count", "higher"},
	{"frag.frames", "count", "higher"},
	{"frag.fragment_ns_per_kib_isolated", "ns", "lower"},
	{"frag.reassemble_ns_per_kib_isolated", "ns", "lower"},

	{"calendar.slots_per_round", "count", "higher"},
	{"calendar.pack_ms", "ms", "lower"},
	{"clock.sync_frames", "count", "lower"},

	{"prob.requests", "count", "higher"},
	{"prob.admitted", "count", "higher"},
	{"prob.rejected", "count", "lower"},
	{"prob.request_us_p50", "us", "lower"},
	{"prob.request_us_max", "us", "lower"},

	{"gateway.forwarded", "count", "higher"},
	{"gateway.received", "count", "higher"},
	{"gateway.dropped", "count", "lower"},
	{"gateway.late", "count", "lower"},
	{"gateway.receive_ns_p50", "ns", "lower"},
	{"gateway.receive_ns_p99", "ns", "lower"},

	{"relay.loopback_ns_per_frame", "ns", "lower"},
	{"relay.loopback_allocs_per_frame", "allocs/frame", "lower"},
	{"relay.bytes_per_frame", "B/frame", "lower"},
	{"relay.dropped", "count", "lower"},

	{"obs.records", "count", "lower"},
	{"obs.records_per_frame", "1/frame", "lower"},
	{"obs.causal.chains", "count", "higher"},
	{"obs.causal.add_ns_per_record_isolated", "ns", "lower"},
	{"obs.tax_ratio", "x", "lower"},
	{"obs.perturbs_virtual_time", "count", "lower"},
	{"obs.ladder.off_ns_per_frame", "ns", "lower"},
	{"obs.ladder.metrics_ns_per_frame", "ns", "lower"},
	{"obs.ladder.trace_ns_per_frame", "ns", "lower"},
	{"obs.ladder.causal_ns_per_frame", "ns", "lower"},
	{"obs.ladder.flight_slo_ns_per_frame", "ns", "lower"},
	{"obs.ladder.profiler_ns_per_frame", "ns", "lower"},

	{"harness.kernel_run_self_ns_per_frame", "ns", "lower"},
	{"harness.unattributed_share", "ratio", "lower"},
	{"harness.trace_overhead_ratio", "x", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms_total", "ms", "lower"},
	{"go.heap_peak_mb", "MB", "lower"},

	{"vt.sim_seconds", "s", "higher"},
	{"vt.hrt_jitter_us_max", "us", "lower"},
	{"vt.srt_latency_us_p50", "us", "lower"},
	{"vt.srt_latency_us_p99", "us", "lower"},
	{"vt.srt_latency_samples", "count", "higher"},
	{"vt.srt_miss_ratio", "ratio", "lower"},
	{"vt.nrt_goodput_kbps", "kbit/s", "higher"},
	{"vt.hop_latency_us_p99", "us", "lower"},
	{"vt.hop_latency_samples", "count", "higher"},
}
