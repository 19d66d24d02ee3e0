package main

import (
	"fmt"
	"reflect"
	"time"

	tp "transpimlib"
)

const (
	// setupReps is how many times a run builds its system; setup_s is
	// the median build time.
	setupReps = 31
	// traceCap bounds the calls of a traced phase, so every span tree
	// of the phase stays in memory until the run ends.
	traceCap = 2000
	// forever stands for a phase bounded only by its call limit.
	forever = time.Hour
	// maxWindows and windowCalls set how many equal windows a measured
	// phase is split into for the windowed medians of elems_per_s and
	// the latency tails: up to maxWindows, each holding at least
	// windowCalls requests so that a window's p99 has ten samples beyond it.
	maxWindows  = 20
	windowCalls = 1000
)

// deployment is one built serving system: an engine or a cluster,
// tables resident, ready to serve.
type deployment interface {
	server
	engineStats() tp.EngineStats // summed over replicas
	queueDepth() int             // backlog over all engines
	traces() []*tp.Trace         // retained span trees; nil untraced
	clusterStats() (tp.ClusterStats, bool)
	close()
}

// engineDeployment serves a workload from one engine.
type engineDeployment struct {
	e     *tp.Engine
	serve func(e *tp.Engine, c, seq int) result
}

func (d *engineDeployment) do(c, seq int) result                  { return d.serve(d.e, c, seq) }
func (d *engineDeployment) engineStats() tp.EngineStats           { return d.e.Stats() }
func (d *engineDeployment) queueDepth() int                       { return d.e.Stats().QueueDepth }
func (d *engineDeployment) traces() []*tp.Trace                   { return d.e.Traces() }
func (d *engineDeployment) clusterStats() (tp.ClusterStats, bool) { return tp.ClusterStats{}, false }
func (d *engineDeployment) close()                                { d.e.Close() }

// servingWorkload is a workload served by the engine or the cluster.
type servingWorkload interface {
	clients() int
	warmup() int // requests per client before any measured phase
	// open builds a deployment; traceDepth > 0 retains that many span
	// trees (0 keeps the workload's own tracing setting).
	open(traceDepth int) (deployment, error)
	// kernelFloor times Lib.EvalSlice on the workload's own specs and
	// inputs: ns per element, and the elements of one function request.
	kernelFloor() (nsPerElem, elemsPerReq float64, err error)
	// check runs the workload's end-of-phase checks on a deployment.
	check(d deployment, rep *report)
	// layers adds the workload's own per-layer metrics; base is the
	// untraced phase of the traced run, served by d.
	layers(d deployment, base phase, rep *report) error
}

// addStats adds sign × each numeric field of b to a: sign −1 turns
// two snapshots into a delta, sign 1 sums replicas.
func addStats(a *tp.EngineStats, b tp.EngineStats, sign int) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		f, g := av.Field(i), bv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + uint64(sign)*g.Uint()) // wraps: subtraction for sign −1
		case reflect.Int:
			f.SetInt(f.Int() + int64(sign)*g.Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + float64(sign)*g.Float())
		}
	}
}

// delta is after − before.
func delta(before, after tp.EngineStats) tp.EngineStats {
	addStats(&after, before, -1)
	return after
}

// sumStats adds engine counter snapshots (one per replica).
func sumStats(all []tp.EngineStats) tp.EngineStats {
	var s tp.EngineStats
	for _, x := range all {
		addStats(&s, x, 1)
	}
	return s
}

// modeledSeconds is the modeled setup + transfer-in + compute +
// transfer-out time of a counter delta.
func modeledSeconds(s tp.EngineStats) float64 {
	return s.SetupSeconds + s.TransferInSeconds + s.ComputeSeconds + s.TransferOutSeconds
}

// warm sends the warm-up requests: warmup() per client, seqs 0.. so
// that measured phases continue the same request sequence.
func warm(d deployment, w servingWorkload) error {
	p := closedLoop(d, w.clients(), 0, forever, w.warmup()*w.clients(), nil)
	if err := p.firstErr(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// runServing runs a serving workload: untraced, it reports the
// end-to-end metrics; traced, the per-layer metrics.
func runServing(o options, w servingWorkload) (*report, error) {
	if o.trace {
		return runServingTraced(o, w)
	}
	rep := newReport()
	d, setup, err := timedSetups(setupReps, func() (deployment, error) { return w.open(0) }, deployment.close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	if err := warm(d, w); err != nil {
		return nil, err
	}
	s0 := d.engineStats()
	p := closedLoop(d, w.clients(), w.warmup(), o.duration(), 0, nil)
	ds := delta(s0, d.engineStats())
	rep.count(p)
	w.check(d, rep)

	walls := p.wallsUS(-1)
	windows := max(1, min(maxWindows, len(walls)/windowCalls))
	tail := func(q float64) []float64 {
		return p.windowed(windows, func(w phase) float64 { return quantile(w.wallsUS(-1), q) })
	}
	tput, p95s, p99s := p.windowed(windows, phase.throughput), tail(0.95), tail(0.99)
	rep.metrics["setup_s"] = setup
	rep.metrics["elems_per_s"] = median(tput)
	rep.metrics["p50_us"] = median(walls)
	rep.metrics["p95_us"] = median(p95s)
	rep.metrics["alloc_bytes_per_elem"] = ratio(float64(p.allocBytes), float64(p.served()))
	rep.metrics["modeled_s_per_melem"] = ratio(modeledSeconds(ds), float64(ds.Elements)) * 1e6
	rep.note("p50_us over %d requests (%d clients); elems_per_s, p95_us and p99_us are medians over %d windows of ~%d requests",
		len(walls), w.clients(), windows, len(walls)/windows)
	rep.note("p99_us %.6g us (printed, not gated: see README.md)", median(p99s))
	rep.note("window range: elems_per_s %.4g..%.4g, p95_us %.4g..%.4g", tput[0], tput[len(tput)-1], p95s[0], p95s[len(p95s)-1])
	return rep, nil
}

// runServingTraced is the traced run: an untraced base phase for the
// counter and allocation metrics, a traced phase for the span metrics
// and the tracing overhead, and the kernel floor.
func runServingTraced(o options, w servingWorkload) (*report, error) {
	rep := newReport()
	third := o.duration() / 3

	// Base phase: the workload's own configuration.
	d, err := w.open(0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	if err := warm(d, w); err != nil {
		return nil, err
	}
	s0 := d.engineStats()
	c0, _ := d.clusterStats()
	base := closedLoop(d, w.clients(), w.warmup(), third, 0, d.queueDepth)
	ds := delta(s0, d.engineStats())
	if c1, ok := d.clusterStats(); ok {
		clusterLayers(c0, c1, rep)
	}
	rep.count(base)
	w.check(d, rep)
	if err := w.layers(d, base, rep); err != nil {
		return nil, err
	}

	// Traced phase: span trees retained for every call.
	td, err := w.open(traceCap + w.warmup()*w.clients())
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer td.close()
	if err := warm(td, w); err != nil {
		return nil, err
	}
	traced := closedLoop(td, w.clients(), w.warmup(), third, traceCap, nil)
	rep.count(traced)
	pairs, missing := matchTraces(traced.calls, td.traces())
	if missing > 0 {
		rep.fail("%d of %d traced calls have no retained span tree", missing, len(traced.calls))
	}
	roots := make([]*tp.Span, len(pairs))
	for i, p := range pairs {
		roots[i] = p.root
	}
	for _, m := range spanMetric {
		rep.metrics[m] = 0
	}
	for m, xs := range spanSelfTimes(roots) {
		rep.metrics[m] = median(xs)
	}
	path, err := writeSpans(o.spansDir, o.workload, o.seed, pairs)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.note("span trees of %d traced requests written to %s", len(pairs), path)
	rep.metrics["trace.overhead_ratio"] = ratio(median(traced.wallsUS(-1)), median(base.wallsUS(-1)))

	// Counter and allocation metrics of the base phase.
	n := float64(len(base.calls))
	rep.metrics["engine.latency_p50_us"] = median(base.engineLatencyUS(-1))
	rep.metrics["engine.requests_per_batch"] = ratio(float64(ds.Requests), float64(ds.Batches))
	rep.metrics["engine.batches_per_request"] = ratio(float64(ds.Batches), float64(ds.Requests))
	rep.metrics["engine.cache_hit_ratio"] = ratio(float64(ds.CacheHits), float64(ds.CacheHits+ds.CacheMisses))
	rep.metrics["engine.plan_hit_ratio"] = ratio(float64(ds.PlanHits), float64(ds.PlanHits+ds.PlanMisses))
	rep.metrics["engine.queue_depth_mean"] = base.depthMean
	rep.metrics["engine.allocs_per_req"] = ratio(float64(base.mallocs), n)
	rep.metrics["engine.gc_pause_share"] = ratio(float64(base.gcPauseNs), float64(base.wall.Nanoseconds()))
	rep.metrics["engine.func_p50_us"] = median(base.wallsUS(kindFunc))
	rep.metrics["fusion.program_p50_us"] = median(base.wallsUS(kindProgram))

	elems := float64(ds.Elements)
	rep.metrics["pimsim.kernel_cycles_per_elem"] = ratio(float64(ds.KernelCycles), elems)
	rep.metrics["pimsim.bytes_in_per_elem"] = ratio(float64(ds.BytesIn), elems)
	rep.metrics["pimsim.bytes_out_per_elem"] = ratio(float64(ds.BytesOut), elems)
	rep.metrics["pimsim.transfer_share"] = ratio(ds.TransferInSeconds+ds.TransferOutSeconds, modeledSeconds(ds))
	rep.metrics["pimsim.sim_mcycles_per_s"] = float64(ds.KernelCycles) / 1e6 / base.wall.Seconds()

	batches := float64(ds.Batches)
	rep.metrics["reliability.faults_per_batch"] = ratio(float64(ds.FaultsInjected), batches)
	rep.metrics["reliability.retries_per_batch"] = ratio(float64(ds.LaunchRetries+ds.TransferRetries), batches)
	rep.metrics["reliability.remap_share"] = ratio(float64(ds.Remaps), batches)
	rep.metrics["reliability.hedge_share"] = ratio(float64(ds.Hedges), batches)
	rep.metrics["reliability.degraded_share"] = ratio(float64(ds.DegradedBatches), batches)

	// Kernel floor and the engine's overhead over it.
	ns, per, err := w.kernelFloor()
	if err != nil {
		return nil, fmt.Errorf("kernel floor: %w", err)
	}
	rep.metrics["core.evalbatch_ns_per_elem"] = ns
	rep.metrics["engine.overhead_ratio"] = ratio(median(base.engineLatencyUS(kindFunc))*1e3, ns*per)

	// Layers a workload does not cross report 0.
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.Name]; !ok {
			rep.metrics[m.Name] = 0
		}
	}
	rep.note("base phase %d requests, traced phase %d requests", len(base.calls), len(traced.calls))
	return rep, nil
}

// clusterLayers adds the router's metrics from two ClusterStats
// snapshots taken around the base phase.
func clusterLayers(a, b tp.ClusterStats, rep *report) {
	reqs := float64(b.Requests - a.Requests)
	var sum, most float64
	for i := range b.Routed {
		n := float64(b.Routed[i] - a.Routed[i])
		sum += n
		if n > most {
			most = n
		}
	}
	rep.metrics["cluster.imbalance"] = ratio(most, sum/float64(len(b.Routed)))
	rep.metrics["cluster.spill_ratio"] = ratio(float64(b.Spills-a.Spills), reqs)
	rep.metrics["cluster.shed_ratio"] = ratio(float64(b.Shed-a.Shed), reqs)
	rep.metrics["cluster.failover_ratio"] = ratio(float64(b.Failovers-a.Failovers), reqs)
}
