package main

// endToEndDefs are the metrics an untraced run prints. Every workload prints
// every one of them; METRICS.md gives each one's reading per workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"wall_p50_ms", "ms"},
	{"wall_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"sim_us", "us"},
	{"rss_peak_mb", "MiB"},
}

// perLayerDefs are the metrics a traced run prints, named module.quantity.
// A layer the workload does not exercise reports 0.
var perLayerDefs = []metricDef{
	{"loadgen.send_lag_p50_us", "us"},
	{"loadgen.send_lag_p99_us", "us"},
	{"loadgen.rtt_p50_us", "us"},
	{"gateway.handler_p50_us", "us"},
	{"gateway.handler_p99_us", "us"},
	{"gateway.outside_handler_p50_us", "us"},
	{"gateway.over_sim_p50_us", "us"},
	{"gateway.over_sim_p99_us", "us"},
	{"gateway.scrape_p50_us", "us"},
	{"gateway.scrape_p99_us", "us"},
	{"gateway.scrapes", "count"},
	{"gateway.session_write_us", "us"},
	{"gateway.session_bytes", "bytes"},
	{"gateway.replay_verify_s", "s"},
	{"service.inner_calls", "count"},
	{"service.useful_ratio", "ratio"},
	{"datasynth.synth_ms", "ms"},
	{"fusion.compile_ms", "ms"},
	{"gpusim.simulate_ms", "ms"},
	{"gpusim.ns_per_block", "ns"},
	{"fleet.begin_ms", "ms"},
	{"fleet.ns_per_req", "ns"},
	{"fleet.max_queue", "count"},
	{"fleet.split_served", "count"},
	{"fleet.shed_quota", "count"},
	{"fleet.shed_ratio", "ratio"},
	{"fleet.timeouts", "count"},
	{"emcache.hit_ratio", "ratio"},
	{"emcache.evictions", "count"},
	{"core.tune_model_s", "s"},
	{"core.build_pool_s", "s"},
	{"tuner.simulations", "count"},
	{"tuner.memo_hit_ratio", "ratio"},
	{"tuner.occupancies", "count"},
	{"tuner.sims_per_s", "1/s"},
	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
}
