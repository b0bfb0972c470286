package main

// metricSpec is one reported metric as BENCHMARK.json declares it.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median a change may worsen it by
}

// endToEnd are the metrics a user sees, measured with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"archive_edges_per_s", "edges/s", "higher", 0.25},
	{"restore_ms", "ms", "lower", 0.25},
	{"bits_per_edge", "bits", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"reload_ms", "ms", "lower", 0.25},
	{"reach_p50_us", "us", "lower", 0.25},
	{"dist_p50_us", "us", "lower", 0.25},
}

// perLayer are the traced run's metrics: each layer's calls timed from
// the benchmark's own code, the layer's counters, and span self times.
var perLayer = []metricSpec{
	{name: "gen.ms", unit: "ms", better: "lower"},
	{name: "order.fp_ms", unit: "ms", better: "lower"},
	{name: "order.fp_classes", unit: "count", better: "higher"},
	{name: "core.compress_ms", unit: "ms", better: "lower"},
	{name: "core.alloc_mb", unit: "MiB", better: "lower"},
	{name: "core.mallocs", unit: "count", better: "lower"},
	{name: "core.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "core.rounds", unit: "count", better: "lower"},
	{name: "core.replacements", unit: "count", better: "higher"},
	{name: "core.pruned_frac", unit: "ratio", better: "lower"},
	{name: "core.dup_skip_frac", unit: "ratio", better: "lower"},
	{name: "encoding.encode_ms", unit: "ms", better: "lower"},
	{name: "encoding.start_bits_frac", unit: "ratio", better: "lower"},
	{name: "encoding.seal_us", unit: "us", better: "lower"},
	{name: "encoding.unseal_us", unit: "us", better: "lower"},
	{name: "encoding.decode_ms", unit: "ms", better: "lower"},
	{name: "encoding.decode_alloc_mb", unit: "MiB", better: "lower"},
	{name: "grammar.derive_ms", unit: "ms", better: "lower"},
	{name: "grammar.derive_alloc_mb", unit: "MiB", better: "lower"},
	{name: "grammar.rules", unit: "count", better: "lower"},
	{name: "query.compile_ms", unit: "ms", better: "lower"},
	{name: "query.nbr_us", unit: "us", better: "lower"},
	{name: "query.reach_us", unit: "us", better: "lower"},
	{name: "query.dist_us", unit: "us", better: "lower"},
	{name: "query.cache_hit_frac", unit: "ratio", better: "higher"},
	{name: "serve.nbr_p50_us", unit: "us", better: "lower"},
	{name: "serve.nbr_overhead_us", unit: "us", better: "lower"},
	{name: "serve.reach_overhead_us", unit: "us", better: "lower"},
	{name: "serve.dist_overhead_us", unit: "us", better: "lower"},
	{name: "serve.reload_other_ms", unit: "ms", better: "lower"},
	{name: "serve.query_p90_us", unit: "us", better: "lower"},
	{name: "serve.query_p99_us", unit: "us", better: "lower"},
	{name: "serve.max_rate_qps", unit: "req/s", better: "higher"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.query_errors", unit: "count", better: "lower"},
	{name: "serve.panics", unit: "count", better: "lower"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.achieved_qps", unit: "req/s", better: "higher"},
	{name: "loadgen.invalid_steps", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "gen.self_ms", unit: "ms", better: "lower"},
	{name: "order.self_ms", unit: "ms", better: "lower"},
	{name: "core.self_ms", unit: "ms", better: "lower"},
	{name: "encoding.self_ms", unit: "ms", better: "lower"},
	{name: "grammar.self_ms", unit: "ms", better: "lower"},
	{name: "query.self_ms", unit: "ms", better: "lower"},
	{name: "serve.self_ms", unit: "ms", better: "lower"},
	{name: "loadgen.self_ms", unit: "ms", better: "lower"},
	{name: "bench.self_ms", unit: "ms", better: "lower"},
}

// figure is a metric's value with the number of samples behind it.
type figure struct {
	value float64
	n     int
}

type figures map[string]figure

// medianOf sets name to the median of its samples.
func (f figures) medianOf(s samples, name string) {
	f[name] = figure{s.median(name), len(s[name])}
}
