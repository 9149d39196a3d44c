package main

import "fmt"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees; the untraced run
// prints all of them. fail_ratio is 0 on a healthy run, so the result
// line leaves it to "attempted" and "failed".
var endToEnd = []metricDef{
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"fail_ratio", "1"},
	{"resp_bytes_per_item", "B"},
	{"rss_peak_mib", "MiB"},
	{"setup_s", "s"},
}

// gated are the end-to-end metrics of the result line (BENCHMARK.json).
// The batch latencies and the p99s are printed but not gated: on a
// shared two-CPU machine their run-to-run spread is too wide for any
// bound a regression gate can use.
var gated = []string{"items_per_s", "latency_p50_ms", "resp_bytes_per_item", "rss_peak_mib", "setup_s"}

// perLayer are the traced run's metrics, measured from outside each
// layer: timed calls into its public functions, counter deltas from
// /varz and /v1/stats, httptrace spans and runtime/metrics.
var perLayer = []metricDef{
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.transport_share", "1"},
	{"serve.resolve_us", "us"},
	{"serve.cache_hit_ratio", "1"},
	{"serve.singleflight_shared", "count"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"serve.heavy_queued_peak", "count"},
	{"serve.warm_stored", "count"},
	{"serve.warm_append_us", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.frame_to_json_ns", "ns"},
	{"wire.frame_bytes", "B"},
	{"wire.json_bytes", "B"},
	{"scheme.compile_us", "us"},
	{"scheme.key_us", "us"},
	{"classify.classify_us", "us"},
	{"chain.analyze_ms", "ms"},
	{"nchain.analyze_ms", "ms"},
	{"fullinfo.round_ms", "ms"},
	{"fullinfo.configs_per_s", "1/s"},
	{"fullinfo.views_interned", "count"},
	{"fullinfo.worker_forks", "count"},
	{"fullinfo.absorbed", "count"},
	{"fullinfo.symbolic_round_share", "1"},
	{"fullinfo.symbolic_fallbacks", "count"},
	{"fullinfo.engine_runs", "count"},
	{"fullinfo.busy_share", "1"},
	{"cluster.cache_hit_ratio", "1"},
	{"cluster.hedge_ratio", "1"},
	{"cluster.hedge_win_ratio", "1"},
	{"cluster.failovers", "count"},
	{"cluster.breaker_skips", "count"},
	{"cluster.batch_items", "count"},
	{"cluster.hit_us", "us"},
	{"cluster.miss_us", "us"},
	{"cluster.shard_rtt_us", "us"},
	{"go.allocs_per_item", "count"},
	{"go.gc_cpu_share", "1"},
	{"http.conn_wait_us", "us"},
	{"http.ttfb_us", "us"},
	{"http.body_read_us", "us"},
	{"trace.items_per_s_change", "1"},
	{"trace.latency_p50_change", "1"},
	{"trace.spans", "count"},
}

// metricSet collects metrics by name, each with the unit its table gives.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]metric{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic(fmt.Sprintf("metric %q is not in its table", name)) // a typo in this package
}

// only returns the named subset.
func (m *metricSet) only(names []string) map[string]metric {
	out := map[string]metric{}
	for _, n := range names {
		out[n] = m.vals[n]
	}
	return out
}
