package main

// metric describes one reported number. End-to-end metrics carry the
// regression bound BENCHMARK.json fixes for them; per-layer metrics
// carry the end-to-end metric (and workload) they are expected to move.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening, share of the median
	Moves  string  // per-layer only: which end-to-end metric it should move
}

// endToEnd are the metrics a user of the serving stack sees. They are
// measured with tracing off and reported for every workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "elems_per_s", Unit: "elem/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_elem", Unit: "B/elem", Better: "lower", Bound: 0.05},
	{Name: "modeled_s_per_melem", Unit: "s/Melem", Better: "lower", Bound: 0.02},
}

// perLayer are the metrics of single layers, measured from outside in
// the traced run. A layer a workload does not cross reports 0.
var perLayer = []metric{
	{Name: "core.evalbatch_ns_per_elem", Unit: "ns/elem", Better: "lower",
		Moves: "elems_per_s on stream-256k; ~none on serve-1k"},
	{Name: "engine.overhead_ratio", Unit: "ratio", Better: "lower",
		Moves: "p50_us on serve-1k (ROADMAP target <=1.5)"},
	{Name: "engine.latency_p50_us", Unit: "us", Better: "lower",
		Moves: "p50_us on serve-1k, fused-chaos"},
	{Name: "engine.span.queue_us", Unit: "us", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "engine.span.transfer_in_us", Unit: "us", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "engine.span.setup_us", Unit: "us", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "engine.span.kernel_us", Unit: "us", Better: "lower",
		Moves: "p50_us on serve-1k; elems_per_s on stream-256k"},
	{Name: "engine.span.transfer_out_us", Unit: "us", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "engine.span.handoff_us", Unit: "us", Better: "lower",
		Moves: "p50_us on serve-1k; ~0 share on stream-256k"},
	{Name: "engine.span.deliver_us", Unit: "us", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "engine.requests_per_batch", Unit: "ratio", Better: "higher", Moves: "elems_per_s on serve-1k"},
	{Name: "engine.batches_per_request", Unit: "ratio", Better: "lower", Moves: "elems_per_s on stream-256k"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "p95_us on all serving workloads"},
	{Name: "engine.plan_hit_ratio", Unit: "ratio", Better: "higher", Moves: "p95_us on all serving workloads"},
	{Name: "engine.queue_depth_mean", Unit: "count", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "engine.allocs_per_req", Unit: "count", Better: "lower",
		Moves: "p95_us, alloc_bytes_per_elem on stream-256k"},
	{Name: "engine.gc_pause_share", Unit: "ratio", Better: "lower",
		Moves: "p95_us, alloc_bytes_per_elem on stream-256k"},
	{Name: "cluster.route_us", Unit: "us", Better: "lower", Moves: "p50_us on serve-1k"},
	{Name: "cluster.imbalance", Unit: "ratio", Better: "lower", Moves: "elems_per_s on serve-1k"},
	{Name: "cluster.spill_ratio", Unit: "ratio", Better: "lower", Moves: "error_rate, p95_us on serve-1k"},
	{Name: "cluster.shed_ratio", Unit: "ratio", Better: "lower", Moves: "error_rate, p95_us on serve-1k"},
	{Name: "cluster.failover_ratio", Unit: "ratio", Better: "lower", Moves: "error_rate, p95_us on serve-1k"},
	{Name: "pimsim.kernel_cycles_per_elem", Unit: "cycle/elem", Better: "lower",
		Moves: "modeled_s_per_melem everywhere"},
	{Name: "pimsim.bytes_in_per_elem", Unit: "B/elem", Better: "lower", Moves: "modeled_s_per_melem everywhere"},
	{Name: "pimsim.bytes_out_per_elem", Unit: "B/elem", Better: "lower", Moves: "modeled_s_per_melem everywhere"},
	{Name: "pimsim.transfer_share", Unit: "ratio", Better: "lower", Moves: "modeled_s_per_melem everywhere"},
	{Name: "pimsim.sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher", Moves: "elems_per_s on paper-fig9"},
	{Name: "fusion.bytes_per_elem", Unit: "B/elem", Better: "lower", Moves: "modeled_s_per_melem on fused-chaos"},
	{Name: "fusion.saved_bytes_ratio", Unit: "ratio", Better: "higher", Moves: "modeled_s_per_melem on fused-chaos"},
	{Name: "fusion.program_p50_us", Unit: "us", Better: "lower", Moves: "p50_us on fused-chaos"},
	{Name: "engine.func_p50_us", Unit: "us", Better: "lower", Moves: "p50_us on fused-chaos"},
	{Name: "reliability.faults_per_batch", Unit: "ratio", Better: "lower",
		Moves: "p95_us, modeled_s_per_melem on fused-chaos"},
	{Name: "reliability.retries_per_batch", Unit: "ratio", Better: "lower",
		Moves: "p95_us, modeled_s_per_melem on fused-chaos"},
	{Name: "reliability.remap_share", Unit: "ratio", Better: "lower",
		Moves: "p95_us, modeled_s_per_melem on fused-chaos"},
	{Name: "reliability.hedge_share", Unit: "ratio", Better: "lower",
		Moves: "p95_us, modeled_s_per_melem on fused-chaos"},
	{Name: "reliability.degraded_share", Unit: "ratio", Better: "lower",
		Moves: "p95_us, modeled_s_per_melem on fused-chaos"},
	{Name: "observe.on_off_ratio", Unit: "ratio", Better: "lower",
		Moves: "p50_us on fused-chaos (ROADMAP target <=1.25)"},
	{Name: "observe.allocs_per_req_delta", Unit: "count", Better: "lower",
		Moves: "alloc_bytes_per_elem on fused-chaos"},
	{Name: "accwatch.samples_per_req", Unit: "count", Better: "lower", Moves: "p50_us on fused-chaos"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower",
		Moves: "none; it reports the cost of tracing itself"},
}

// workloadInfo is what BENCHMARK.json records about each workload.
type workloadInfo struct {
	Name string
	Why  string
	run  func(o options) (*report, error)
}

// workloadList is the benchmark's workload set, in BENCHMARK.json order.
func workloadList() []workloadInfo {
	return []workloadInfo{
		{Name: "stream-256k", run: runStream,
			Why: "1 client, closed loop, seeded sigmoid inputs; 256K requests split into 4 pipelined 64K batches: the lut/core kernel and the 1 MB output allocation dominate"},
		{Name: "serve-1k", run: runServe,
			Why: "2 clients, closed loop, seeded inputs; 1K requests over a 2-replica cluster, tplload mix, 4 tenants: stage handoffs, queueing, routing and allocation dominate"},
		{Name: "fused-chaos", run: runFused,
			Why: "1 client, closed loop, seeded inputs, fixed fault plan; fused programs alternate with tanh requests, every observer on: the only run of program, faulty and observer paths"},
		{Name: "paper-fig9", run: runFig9,
			Why: "1 client, closed loop, seeded inputs; Fig. 9 Blackscholes/sigmoid/softmax runners at 4 DPUs: the only run of the pimsim per-element interpreter and device kits"},
	}
}
