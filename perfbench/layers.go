package main

import (
	"io"
	"os"
	"path/filepath"
)

// stderr receives diagnostics; the self-test silences it.
var stderr io.Writer = os.Stderr

// layers are the packages the traced run attributes self time to.
var layers = []string{
	"hamilton", "network", "deploy", "sim", "core", "ar", "async",
	"coverage", "metrics", "experiment", "telemetry", "sweepd", "dispatch",
}

// perLayer lists every per-layer metric (BENCHMARK.json "per_layer")
// with its unit. A traced run prints all of them; a layer the workload
// leaves idle reads 0.
var perLayer = []struct{ name, unit string }{
	{"hamilton.build_ms", "ms"},
	{"network.reset_ms_per_trial", "ms"},
	{"deploy.ms_per_trial", "ms"},
	{"deploy.nodes_per_trial", "count"},
	{"sim.assemble_ms_per_trial", "ms"},
	{"sim.events_per_trial", "count"},
	{"core.ms_per_trial", "ms"},
	{"core.rounds_per_trial", "count"},
	{"core.us_per_round", "us"},
	{"core.moves_per_trial", "count"},
	{"core.messages_per_trial", "count"},
	{"core.converged_ratio", "ratio"},
	{"ar.ms_per_trial", "ms"},
	{"ar.rounds_per_trial", "count"},
	{"ar.us_per_round", "us"},
	{"ar.converged_ratio", "ratio"},
	{"async.ms_per_trial", "ms"},
	{"async.sim_s_per_trial", "s"},
	{"async.converged_ratio", "ratio"},
	{"coverage.finalize_ms_per_trial", "ms"},
	{"coverage.headgraph_ms_per_trial", "ms"},
	{"metrics.summarize_us_per_trial", "us"},
	{"experiment.campaign_ms", "ms"},
	{"experiment.aggregate_us_per_trial", "us"},
	{"telemetry.spec_hash_us", "us"},
	{"sweepd.submit_us", "us"},
	{"sweepd.http_us", "us"},
	{"sweepd.store_get_us", "us"},
	{"sweepd.store_entries", "count"},
	{"sweepd.manifest_bytes", "B"},
	{"sweepd.queue_wait_ms", "ms"},
	{"sweepd.run_ms", "ms"},
	{"sweepd.persist_overhead_ms", "ms"},
	{"sweepd.cache_hit_ratio", "ratio"},
	{"sweepd.terminal_not_durable", "count"},
	{"sweepd.hit_p50_ms", "ms"},
	{"sweepd.hit_p90_ms", "ms"},
	{"sweepd.cold_p50_ms", "ms"},
	{"sweepd.cold_p90_ms", "ms"},
	{"dispatch.attempts_per_shard", "count"},
	{"dispatch.launches_per_campaign", "count"},
	{"dispatch.first_beat_ms", "ms"},
	{"dispatch.tail_ms", "ms"},
	{"dispatch.driver_cpu_ms_per_op", "ms"},
	{"dispatch.worker_cpu_ms_per_op", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.peak_rss_mb", "MB"},
	{"overhead.setup_s_pct", "%"},
	{"overhead.ops_per_s_pct", "%"},
	{"overhead.lat_p50_ms_pct", "%"},
	{"overhead.lat_p90_ms_pct", "%"},
	{"overhead.cpu_ms_per_op_pct", "%"},
	{"overhead.alloc_bytes_per_op_pct", "%"},
	{"overhead.allocs_per_op_pct", "%"},
	{"share.hamilton_pct", "%"},
	{"share.network_pct", "%"},
	{"share.deploy_pct", "%"},
	{"share.sim_pct", "%"},
	{"share.core_pct", "%"},
	{"share.ar_pct", "%"},
	{"share.async_pct", "%"},
	{"share.coverage_pct", "%"},
	{"share.metrics_pct", "%"},
	{"share.experiment_pct", "%"},
	{"share.telemetry_pct", "%"},
	{"share.sweepd_pct", "%"},
	{"share.dispatch_pct", "%"},
}

// setLayerDefaults sets every per-layer metric to 0, so a traced run
// prints the full set whichever layers its workload exercises.
func setLayerDefaults(r *report) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

// traceDir is where traced runs write their spans; it outlives the
// run's scratch directory.
func (c config) traceDir() string {
	return filepath.Join(filepath.Dir(c.work), "traces", c.name)
}
