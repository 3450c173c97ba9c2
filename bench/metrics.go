package main

// endToEnd are the metrics an untraced run reports, for every workload.
// BENCHMARK.json declares the same list with each metric's bound; a test
// keeps the two in step.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "heap_mean_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics a traced run reports, for every workload,
// named <layer>.<what> after the module that does the work. Counts are per
// operation, and times are shares of the time spent in the solver or the
// server, so a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "serve.queue_pct", Unit: "%", Better: "lower"},
	{Name: "serve.lock_wait_pct", Unit: "%", Better: "lower"},
	{Name: "serve.batch_merged_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "op.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.subproblems_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.rowgen_rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "core.rowgen_pct", Unit: "%", Better: "lower"},
	{Name: "core.dive_pct", Unit: "%", Better: "lower"},
	{Name: "core.warmcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.warm_node_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dispatch.solves_per_op", Unit: "count", Better: "lower"},
	{Name: "dispatch.rounds_per_solve", Unit: "count", Better: "lower"},
	{Name: "dispatch.infeasible_per_op", Unit: "count", Better: "lower"},
	{Name: "qp.solves_per_op", Unit: "count", Better: "lower"},
	{Name: "qp.iterations_per_op", Unit: "count", Better: "lower"},
	{Name: "qp.iterations_per_solve_p50", Unit: "count", Better: "lower"},
	{Name: "qp.infeasible_per_op", Unit: "count", Better: "lower"},
	{Name: "milp.nodes_per_op", Unit: "count", Better: "lower"},
	{Name: "milp.node_pct", Unit: "%", Better: "lower"},
	{Name: "milp.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "milp.incumbents_per_op", Unit: "count", Better: "lower"},
	{Name: "milp.cuts_per_op", Unit: "count", Better: "higher"},
	{Name: "milp.presolve_fixed_per_op", Unit: "count", Better: "higher"},
	{Name: "lp.solves_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.pivots_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.phase1_pivots_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.solve_pct", Unit: "%", Better: "lower"},
	{Name: "lp.warm_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lp.dense_solves_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.sparse_solves_per_op", Unit: "count", Better: "lower"},
	{Name: "sparse.ftran_per_op", Unit: "count", Better: "lower"},
	{Name: "sparse.btran_per_op", Unit: "count", Better: "lower"},
	{Name: "sparse.refactors_per_op", Unit: "count", Better: "lower"},
	{Name: "sweep.scenarios_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sweep.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "mem.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "mem.gc_pause_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
