package main

// metricDef describes one reported metric. Clock says what a time-valued
// metric measures: "host" is the simulator running as a program, "sim" the
// modelled device, "count" a counter or ratio of counters (deterministic
// for a fixed seed unless its layer is host-timed).
type metricDef struct {
	Name, Unit, Better, Clock, Layer string
}

// endToEnd lists the metrics a user of the simulator sees. The first five
// are defined on every workload and are the ones BENCHMARK.json gates; the
// rest are modelled-device metrics of single workloads, printed on the
// workloads that define them.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", "host", "e2e"},
	{"setup_s", "s", "lower", "host", "e2e"},
	{"sim_req_per_s", "req/s", "higher", "host", "e2e"},
	{"peak_rss_mib", "MiB", "lower", "host", "e2e"},
	{"waf", "ratio", "lower", "sim", "e2e"},
	{"iops_vs_abgc", "ratio", "higher", "sim", "e2e"},
	{"waf_vs_abgc", "ratio", "lower", "sim", "e2e"},
	{"sim_iops", "req/s", "higher", "sim", "e2e"},
	{"sim_p999_ms", "ms", "lower", "sim", "e2e"},
	{"slo_met_frac", "ratio", "higher", "sim", "e2e"},
}

// gatedEndToEnd is how many leading endToEnd entries every workload reports.
const gatedEndToEnd = 5

// perLayer lists the traced run's metrics, grouped by the layer (module)
// whose calls they time or whose counters they read.
var perLayer = []metricDef{
	{"workload.generate_s", "s", "lower", "host", "workload"},

	{"sim.begin_s", "s", "lower", "host", "sim"},
	{"sim.step.read.ns", "ns", "lower", "host", "sim"},
	{"sim.step.read.calls", "count", "higher", "count", "sim"},
	{"sim.step.buffered.ns", "ns", "lower", "host", "sim"},
	{"sim.step.buffered.calls", "count", "higher", "count", "sim"},
	{"sim.step.buffered.p99_ns", "ns", "lower", "host", "sim"},
	{"sim.step.direct.ns", "ns", "lower", "host", "sim"},
	{"sim.step.direct.calls", "count", "higher", "count", "sim"},
	{"sim.step.trim.ns", "ns", "lower", "host", "sim"},
	{"sim.step.trim.calls", "count", "higher", "count", "sim"},
	{"sim.tick_flush.ns", "ns", "lower", "host", "sim"},
	{"sim.ticks", "count", "lower", "count", "sim"},
	{"sim.tick_apply.ns", "ns", "lower", "host", "sim"},
	{"share.setup", "ratio", "lower", "host", "sim"},
	{"share.step", "ratio", "lower", "host", "sim"},
	{"share.flush", "ratio", "lower", "host", "sim"},
	{"share.decide", "ratio", "lower", "host", "sim"},
	{"share.apply", "ratio", "lower", "host", "sim"},
	{"share.results", "ratio", "lower", "host", "sim"},

	{"core.decide.L-BGC.ns", "ns", "lower", "host", "core"},
	{"core.decide.A-BGC.ns", "ns", "lower", "host", "core"},
	{"core.decide.ADP-GC.ns", "ns", "lower", "host", "core"},
	{"core.decide.JIT-GC.ns", "ns", "lower", "host", "core"},
	{"core.reclaim_bytes", "B", "lower", "count", "core"},
	{"predictor.accuracy", "ratio", "higher", "count", "predictor"},
	{"predictor.sip_pages_mean", "count", "higher", "count", "predictor"},

	{"pagecache.dirty_pages_mean", "count", "lower", "count", "pagecache"},
	{"pagecache.dirty_pages_max", "count", "lower", "count", "pagecache"},
	{"pagecache.expired_flushes", "count", "lower", "count", "pagecache"},
	{"pagecache.pressure_flushes", "count", "lower", "count", "pagecache"},
	{"pagecache.overwrites", "count", "higher", "count", "pagecache"},
	{"pagecache.read_hit_ratio", "ratio", "higher", "count", "pagecache"},

	{"ftl.new_s", "s", "lower", "host", "ftl"},
	{"ftl.fill.ns_per_write", "ns", "lower", "host", "ftl"},
	{"ftl.mix.ns_per_write", "ns", "lower", "host", "ftl"},
	{"ftl.steady.ns_per_write", "ns", "lower", "host", "ftl"},
	{"ftl.metadata_bytes_per_page", "B/page", "lower", "count", "ftl"},
	{"ftl.fgc_invocations", "count", "lower", "count", "ftl"},
	{"ftl.bgc_collections", "count", "lower", "count", "ftl"},
	{"ftl.erases", "count", "lower", "count", "ftl"},
	{"ftl.wasted_migration_frac", "ratio", "lower", "count", "ftl"},
	{"ftl.sip_filtered_frac", "ratio", "higher", "count", "ftl"},

	{"nand.reads", "count", "lower", "count", "nand"},
	{"nand.programs", "count", "lower", "count", "nand"},
	{"nand.erases", "count", "lower", "count", "nand"},
	{"nand.busy_sim_s", "s", "lower", "sim", "nand"},
	{"nand.erase_spread", "count", "lower", "count", "nand"},

	{"metrics.results.ns", "ns", "lower", "host", "metrics"},

	{"array.new_s", "s", "lower", "host", "array"},
	{"array.begin_s", "s", "lower", "host", "array"},
	{"array.run.ns_per_req", "ns", "lower", "host", "array"},
	{"array.gc_granted", "count", "higher", "count", "array"},
	{"array.gc_denied", "count", "lower", "count", "array"},
	{"array.gc_boosted", "count", "higher", "count", "array"},
	{"array.gc_bypassed", "count", "lower", "count", "array"},
	{"array.waf_spread", "ratio", "lower", "count", "array"},
	{"array.resolved_cap", "count", "higher", "count", "array"},

	{"tenant.new_s", "s", "lower", "host", "tenant"},
	{"tenant.begin_s", "s", "lower", "host", "tenant"},
	{"tenant.run.ns_per_req", "ns", "lower", "host", "tenant"},
	{"tenant.arrivals", "count", "higher", "count", "tenant"},
	{"tenant.admitted", "count", "higher", "count", "tenant"},
	{"tenant.dropped", "count", "lower", "count", "tenant"},
	{"tenant.peak_queue_depth", "count", "lower", "count", "tenant"},
	{"tenant.violations", "count", "lower", "count", "tenant"},

	{"grid.cells", "count", "higher", "count", "jitgc"},
	{"grid.worker_busy_frac", "ratio", "higher", "host", "jitgc"},

	{"telemetry.events", "count", "lower", "count", "telemetry"},
	{"telemetry.ns_per_event", "ns", "lower", "host", "telemetry"},
	{"telemetry.bytes_per_event", "B", "lower", "count", "telemetry"},

	{"trace.overhead_frac", "ratio", "lower", "host", "benchmark"},
}
