package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; a test keeps the
// two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what an untraced run reports, on every workload. wall_s
// and sim_tasks_per_s time each workload's unit of work: one pass of
// the Fig 8 and Fig 9 sweeps, one pass over the capture corpus, or the
// closed batch of sessions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_tasks_per_s", "tasks/s"},
	{"peak_heap_mb", "MB"},
	{"success_ratio", "ratio"},
}

// perLayer is what a traced run reports, on every workload; a layer a
// workload does not reach reads 0 there. op_* time one operation of the
// unit of work: a simulator run, a capture's codec pipeline, or a
// closed-batch session from submit to the client seeing it finish.
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"sim_makespan_s", "s"},
	{"sim.events", "count"},
	{"sim.events_cancelled", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.handoff_share", "ratio"},
	{"memsim.solver_share", "ratio"},
	{"memsim.live_flows_mean", "count"},
	{"core.fetches", "count"},
	{"core.evictions", "count"},
	{"core.refetches", "count"},
	{"core.forced_evictions", "count"},
	{"core.stage_retries", "count"},
	{"core.gb_moved", "GB"},
	{"core.useful_fetch_ratio", "ratio"},
	{"core.self_share", "ratio"},
	{"charm.self_share", "ratio"},
	{"charm.tasks", "count"},
	{"charm.messages", "count"},
	{"kernels.build_ms", "ms"},
	{"kernels.self_share", "ratio"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.encode_mb_per_s", "MB/s"},
	{"trace.export_mb_per_s", "MB/s"},
	{"trace.diff_ms", "ms"},
	{"trace.summarize_ms", "ms"},
	{"trace.bytes_per_event", "B"},
	{"trace.self_share", "ratio"},
	{"serve.trace_download_ms", "ms"},
	{"serve.windows", "count"},
	{"serve.ms_per_window", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"serve.self_share", "ratio"},
	{"http.submit_p50_ms", "ms"},
	{"http.submit_tail_ms", "ms"},
	{"http.poll_busy_p50_ms", "ms"},
	{"http.poll_busy_tail_ms", "ms"},
	{"http.poll_idle_p50_ms", "ms"},
	{"http.poll_idle_tail_ms", "ms"},
	{"http.self_share", "ratio"},
	{"session_p50_ms.low", "ms"},
	{"session_tail_ms.low", "ms"},
	{"session_p50_ms.high", "ms"},
	{"session_tail_ms.high", "ms"},
	{"submit_p50_ms.high", "ms"},
	{"submit_tail_ms.high", "ms"},
	{"sessions_per_s", "1/s"},
	{"load.lag_p50_ms", "ms"},
	{"load.lag_tail_ms", "ms"},
	{"go.allocs_per_task", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_share", "ratio"},
	{"go.sched_share", "ratio"},
	{"bench.self_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"failed_ratio", "ratio"},
}
