package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name, Unit string
}

// endToEnd are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"dse_wall_s", "s"},
	{"sim_points_per_s", "1/s"},
	{"retained_heap_mb", "MB"},
	{"ok_frac", "ratio"},
	{"single_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
}

// selfTimeLayers are the layers whose span self time a traced run reports.
var selfTimeLayers = []string{"run", "trace", "cpu", "mem", "bpred", "space", "core", "loadgen", "gateway", "http", "serve"}

// perLayer are printed by every traced run, on every workload; a layer a
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.generate_s", "s"},
		{"cpu.evaluator_new_s", "s"},
		{"cpu.combine_us", "us"},
		{"mem.pass_s", "s"},
		{"mem.passes", "count"},
		{"mem.ns_per_instr", "ns"},
		{"mem.l1d_misses", "count"},
		{"mem.l2_misses", "count"},
		{"mem.dtlb_misses", "count"},
		{"bpred.pass_s", "s"},
		{"bpred.passes", "count"},
		{"bpred.mispredicts", "count"},
		{"space.sweep_s", "s"},
		{"space.parallel_eff", "ratio"},
		{"engine.tasks", "count"},
		{"engine.queue_wait_s", "s"},
	}
	for _, k := range layerKinds {
		defs = append(defs,
			metricDef{"core.train_s." + k.String(), "s"},
			metricDef{"core.cv_s." + k.String(), "s"},
			metricDef{"core.predict_ns_per_row." + k.String(), "ns"})
	}
	defs = append(defs,
		metricDef{"core.selected_true_mape_pct", "%"},
		metricDef{"active.train_s", "s"},
		metricDef{"active.acquire_s", "s"},
		metricDef{"gateway.overhead_us", "us"},
		metricDef{"gateway.affinity", "ratio"},
		metricDef{"http.rtt_us", "us"},
		metricDef{"serve.handler_us.single", "us"},
		metricDef{"serve.handler_us.batch", "us"},
		metricDef{"serve.handler_allocs.single", "count"},
		metricDef{"serve.handler_allocs.batch", "count"},
		metricDef{"serve.decode_us", "us"},
		metricDef{"serve.resolve_us", "us"},
		metricDef{"serve.encode_us", "us"},
	)
	for _, k := range kernelKinds {
		defs = append(defs, metricDef{"serve.kernel_ns_per_row." + k.String(), "ns"})
	}
	defs = append(defs,
		metricDef{"serve.rows_per_batch", "count"},
		metricDef{"serve.shed", "count"},
		metricDef{"predcache.hit_ratio", "ratio"},
		metricDef{"predcache.coalesced", "count"},
		metricDef{"obs.scrape_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"tracing.overhead_dse_wall_s", "s"},
		metricDef{"tracing.overhead_single_p50_ms", "ms"},
	)
	for _, l := range selfTimeLayers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	return defs
}()
