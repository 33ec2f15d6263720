package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names and units; the self-test holds the two lists
// together.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the figures a user of skyfaas sees, reported by untraced
// runs. A "request" is a POST /v1/burst on the burst workloads and one
// replay round of RunMeshLoad on mesh-sharded.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"inv_per_s", "inv/s"},
	{"cpu_us_per_inv", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's figures, each named after the module it
// measures. A layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"load.late_p99_ms", "ms"},
	{"load.conn_wait_p50_ms", "ms"},
	{"load.error_share", "fraction"},
	{"skyd.handler_p50_ms", "ms"},
	{"skyd.handler_p99_ms", "ms"},
	{"skyd.exec_wait_p50_ms", "ms"},
	{"skyd.exec_self_p50_us", "us"},
	{"http.client_self_p50_ms", "ms"},
	{"tenant.acquire_release_us", "us"},
	{"tenant.shed_share", "fraction"},
	{"admission.admit_done_us", "us"},
	{"admission.shed_share", "fraction"},
	{"admission.route_reuse_share", "fraction"},
	{"sim.pacing_ratio", "ratio"},
	{"sim.burst_virtual_ms_p50", "ms"},
	{"sim.burst_inflation_p50", "ratio"},
	{"sim.sharded_speedup", "ratio"},
	{"router.decision_table_us", "us"},
	{"router.run_wall_p50_ms", "ms"},
	{"router.attempts_per_completion", "ratio"},
	{"router.mean_run_ms", "ms"},
	{"router.usd_per_kinv", "USD"},
	{"cloudsim.cold_start_share", "fraction"},
	{"cloudsim.saturation_events", "count"},
	{"saaf.collect_us", "us"},
	{"saaf.collect_allocs", "count"},
	{"cpu.parse_us", "us"},
	{"sampler.characterize_s", "s"},
	{"sampler.samples_per_s", "1/s"},
	{"mesh.build_s", "s"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cpu_share", "fraction"},
	{"go.heap_peak_mb", "MB"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_share", "fraction"},
}

func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m.unit, true
			}
		}
	}
	return "", false
}
