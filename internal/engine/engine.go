// Package engine is a batched, multi-tenant serving runtime on top of
// the PIM simulator — the step from the paper's one-shot
// setup→transfer→launch→retrieve benchmarks (Figs. 5–9) to a
// long-lived inference-style service.
//
// The engine keeps a table/setup cache keyed by (function, method,
// LUT size, placement) so repeated requests skip the Fig.-6 setup
// cost entirely; it coalesces concurrent small requests into batches
// and shards each batch across a group of PIM cores with equal-size
// (padded) per-bank buffers, preserving the parallel-transfer
// semantics of §2.1. Each shard is one goroutine that runs a batch to
// completion — transfer-in, kernel, transfer-out — the way the paper's
// host driver populates, launches and reads back; shards run in
// parallel, and a bounded submit queue carries backpressure to the
// caller. Every request reports its wall-clock latency plus the
// modeled per-stage costs; the engine accumulates fleet-wide counters.
//
// Every batch — a function request (alone or coalesced), a fused
// program, clean or under fault injection, fast or Reference — runs one
// way: as a compiled fusion program (a function batch is its spec's
// one-node program) through one executor, whose only control flow is
// the recovery ladder (reliability.go). Batches stage on the host: the
// kernels read and write the requests' slices or the shard's flat
// buffers while the simulator charges exactly the modeled DMA and
// transfer costs of the MRAM round trip, so outputs and cycles are
// those of the device kernel.
//
// Concurrency discipline (see pimsim.System): each shard's cores and
// host staging buffers are owned by that shard's goroutine, the only
// one that touches their memories (table builds, scrubbing, kernels);
// the transfer clock is shared and internally locked. A caller finishes
// its own request — latency, ledger row, accuracy sample, trace — after
// the shard that completed its last segment releases it.
package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"
	"unsafe"

	"transpimlib/internal/accwatch"
	"transpimlib/internal/core"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/fusion"
	"transpimlib/internal/lut"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/profiler"
	"transpimlib/internal/telemetry"
)

// ErrEngineClosed is returned by submit paths after Close.
var ErrEngineClosed = errors.New("engine: closed")

// Config describes an engine.
type Config struct {
	// DPUs is the total number of simulated PIM cores (default 8).
	DPUs int
	// Shards is the number of independent shards (one goroutine each)
	// the cores are divided into; batches are load-balanced across
	// shards. DPUs must be divisible by Shards. Default: 2 when DPUs is
	// even and >1, else 1.
	Shards int
	// MaxBatch is the largest number of elements dispatched as one
	// batch (default 4096). Larger requests are split; smaller
	// concurrent same-spec requests are coalesced up to this bound.
	MaxBatch int
	// BatchWindow is how long the batcher holds the first request of a
	// round to let more arrive and coalesce. Zero (the default) only
	// coalesces requests that are already queued.
	BatchWindow time.Duration
	// QueueDepth bounds the submit queue; callers block (backpressure)
	// when it is full. Default 64.
	QueueDepth int
	// Cost selects the machine profile (zero value: the UPMEM-like
	// default).
	Cost pimsim.CostModel
	// TraceDepth retains the span trees of the last N completed
	// requests (Engine.TraceLast, /debug/trace). Zero disables
	// tracing: no stage timestamps are taken and no spans allocated.
	TraceDepth int
	// Profile enables per-DPU kernel-launch profiling: instruction-
	// class cycle counters and per-core kernel cycles accumulate into
	// the telemetry registry (pim_* series), read from the executor's
	// per-launch record. Off by default; when off, a launch pays one
	// nil check.
	Profile bool
	// Profiler enables the continuous modeled-cycle profiler: every
	// kernel launch is attributed to (tenant, function, method,
	// launch stage / program phase, instruction class) frames with
	// per-DPU utilization heatmaps, exported at /debug/profile and
	// /debug/heatmap (see internal/profiler). It reads the same
	// per-launch record as Profile. Disabled (the zero value), a launch
	// pays one nil check, as with Profile off.
	Profiler profiler.Config
	// Reference forces every kernel through the per-element
	// interpreted kernel instead of the fused batch fast path — the
	// escape hatch for differential debugging. Cycle accounting and
	// outputs are bit-identical either way (the contract the
	// differential tests enforce); only host-side wall time differs.
	Reference bool
	// Faults, when non-nil and enabled, installs a deterministic fault
	// injector (see internal/faultsim) and activates the engine's
	// recovery ladder: retry with modeled backoff, health-aware shard
	// remapping, optional hedged launches, and host-mirror degradation.
	// Nil (or a plan that never fires) leaves the engine bit-identical
	// to the fault-free engine.
	Faults *faultsim.Plan
	// Reliability tunes the recovery ladder; zero value = defaults.
	// Only consulted when Faults is enabled.
	Reliability ReliabilityConfig
	// Accuracy enables the online accuracy observability layer: a
	// deterministic shadow-sampler re-evaluates a fraction of each
	// request's elements against the float64 host reference and feeds
	// per-(function, method, tenant) error/coverage series with SLO
	// gating (see internal/accwatch). Disabled (the zero value), the
	// serving path is bit-identical to an engine without it — one nil
	// check per completed request, no allocation.
	Accuracy accwatch.Config
	// Ledger enables the per-tenant cost ledger: every completed batch
	// charges its modeled kernel cycles, transfer bytes and elements to
	// the (tenant, function, method) row of the requests it carried,
	// with exact integer partitioning — the ledger's cycle total
	// reconciles ±0 against the simulator's attributed cycles. Disabled
	// (the default), a shard pays one nil check per batch and the
	// serving path is bit-identical.
	Ledger bool
	// Timeline enables the windowed metrics store: a background ticker
	// snapshots the registry into fixed-width buckets served at
	// /debug/timeline. Zero value (disabled) adds nothing.
	Timeline telemetry.TimelineConfig
	// ProcName, when set, names this engine's process lane on every
	// exported trace span tree ("replica/2" under a cluster). Empty,
	// each trace renders in its own per-trace lane.
	ProcName string
	// Log, when non-nil, receives structured events from the recovery
	// ladder (degrades, quarantines, table repairs) and the accuracy
	// watcher (SLO breaches, drift). Nil disables logging; counters
	// and snapshots still move.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.DPUs <= 0 {
		c.DPUs = 8
	}
	if c.Shards <= 0 {
		if c.DPUs > 1 && c.DPUs%2 == 0 {
			c.Shards = 2
		} else {
			c.Shards = 1
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Cost == (pimsim.CostModel{}) {
		c.Cost = pimsim.Default()
	}
	return c
}

// shard is one serving group: a contiguous range of cores with its
// own host staging buffers, driven by one goroutine (serveShard).
type shard struct {
	id   int
	ids  []int // global core ids (contiguous)
	dpus []*pimsim.DPU

	capPerDPU int // elements per core of the largest batch

	// inBuf/outBuf are the flat host staging buffers in core-major
	// order (core k owns [k·perDPU, (k+1)·perDPU)), sized
	// capPerDPU·cores: a coalesced batch's segments pack into them with
	// contiguous copies.
	inBuf  []float32
	outBuf []float32
	// arena is per-local-core classifier scratch for the fused batch
	// kernels' SoA lanes, pre-grown to capPerDPU at construction so
	// steady-state batches allocate nothing. Indexed by serving lane,
	// so remapped and hedged launches never share an arena.
	arena []*lut.Scratch

	// The executor's per-launch scratch, persistent so steady-state
	// batches allocate nothing: lanes lists every local lane (the
	// full layout); launchIDs/chunkOf are the current launch's core ids
	// and lane → chunk map; cores holds each launched lane's accounting
	// snapshot before the launch and its delta after it (the launch
	// record the profiling sinks read); deltas the lanes' closed-form
	// cycles; failedLane the lanes that failed within the current batch
	// (see reliability.go).
	lanes, launchIDs, chunkOf []int
	cores                     []pimsim.CoreProfile
	deltas                    []uint64
	failedLane                []bool

	// kernel is the shard's launch kernel, the method value s.runLane
	// bound once at construction; it reads the plan Exec, phase and
	// fast flag that launch sets here, so a launch allocates no
	// closure.
	kernel func(ctx *pimsim.Ctx, dpuID int) error
	ex     *fusion.Exec
	phase  int
	fast   bool

	// lctx is the profiler's launch context, filled after each launch
	// and passed to Collector.Observe; kept per shard so its Segs slice
	// is reused. Unused when profiling is off.
	lctx profiler.LaunchContext

	// Reliability state, allocated only when fault injection is on
	// (see reliability.go). rec is a throwaway recorder Ctx for
	// host-mirror degraded evaluation; ioEnd[k] marks the end of lane
	// k's reserved I/O region, so [ioEnd, MRAM.Used()) is the
	// resident-table region that golden/goldenSum scrub against.
	rec          *pimsim.Ctx
	ioEnd        []int
	goldenEnd    []int
	golden       [][]byte
	goldenSum    []uint64
	scratch      []byte
	lanesScratch []int
	medScratch   []uint64
}

// Engine is the serving runtime. Create with New, submit with
// EvaluateBatch (safe for concurrent use), and Close when done.
type Engine struct {
	cfg    Config
	sys    *pimsim.System
	shards []*shard
	cache  *tableCache
	// plans caches compiled batch plans per (program, shard, size) so
	// the steady state skips compiling, table-cache locking and shard
	// planning; see plan.go. Invalidated lazily by the table cache's
	// generation. fnProgs holds each function spec's one-node program.
	plans   *planCache
	fnMu    sync.Mutex
	fnProgs map[Spec]*fusion.Compiled

	submit   chan *request
	dispatch chan *batch

	mu     sync.RWMutex // guards closed / submit send
	closed bool
	wg     sync.WaitGroup

	tel    *telemetry.Telemetry // registry always present; Tracer nil unless TraceDepth > 0
	met    *metrics
	tracer *telemetry.Tracer // alias of tel.Tracer, nil when tracing is off

	// Reliability subsystem, nil unless Config.Faults enables
	// injection. seq is the batcher-owned batch sequence counter — the
	// deterministic clock every injection decision keys on.
	inj    *faultsim.Injector
	rel    ReliabilityConfig
	health *HealthTracker
	seq    uint64

	// acc is the accuracy watcher, nil unless Config.Accuracy.Enabled
	// — the disabled serving path pays one nil check per request.
	// log is the structured event sink (nil = no logging).
	acc *accwatch.Watcher
	log *slog.Logger

	// led is the per-tenant cost ledger, nil unless Config.Ledger;
	// timeline is the windowed metrics store, nil unless enabled.
	led      *telemetry.Ledger
	timeline *telemetry.Timeline

	// kprof feeds the pim_* kernel metrics, nil unless Config.Profile;
	// prof is the modeled-cycle profiler's collector, nil unless
	// Config.Profiler.Enabled. Both read launch's per-lane record.
	kprof *kernelProfiler
	prof  *profiler.Collector
}

// New builds and starts an engine: the PIM system, the per-shard
// staging buffers and MRAM reservations, the batcher, and one goroutine
// per shard.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.DPUs%cfg.Shards != 0 {
		return nil, fmt.Errorf("engine: %d DPUs not divisible into %d shards", cfg.DPUs, cfg.Shards)
	}
	e := &Engine{
		cfg:      cfg,
		sys:      pimsim.NewSystem(pimsim.Config{DPUs: cfg.DPUs, Cost: cfg.Cost}),
		cache:    newTableCache(),
		plans:    newPlanCache(defaultPlanCacheLimit),
		fnProgs:  make(map[Spec]*fusion.Compiled),
		submit:   make(chan *request, cfg.QueueDepth),
		dispatch: make(chan *batch, cfg.Shards),
	}
	reg := telemetry.NewRegistry()
	e.met = newMetrics(reg, cfg.Shards)
	if cfg.TraceDepth > 0 {
		e.tracer = telemetry.NewTracer(cfg.TraceDepth)
	}
	e.tel = &telemetry.Telemetry{Registry: reg, Tracer: e.tracer}
	if cfg.Profiler.Enabled {
		e.prof = profiler.New(cfg.Profiler, cfg.DPUs)
		e.prof.Start()
		// Attribution gives reconciliation tests (and operators) the
		// simulator-side total that profile wall cycles must sum to.
		e.sys.SetCycleAttribution(true)
		srcName := cfg.ProcName
		if srcName == "" {
			srcName = "engine"
		}
		sources := func() []profiler.Source {
			return []profiler.Source{{Name: srcName, C: e.prof}}
		}
		e.tel.ProfileHandler = profiler.ProfileHandler(sources)
		e.tel.HeatmapHandler = profiler.HeatmapHandler(sources)
	}
	if cfg.Profile {
		e.kprof = newKernelProfiler(reg, cfg.DPUs)
	}
	e.log = cfg.Log
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		e.inj = faultsim.NewInjector(*cfg.Faults)
		e.rel = cfg.Reliability.withDefaults()
		e.health = NewHealthTracker(cfg.DPUs, e.rel)
		e.sys.SetFaultAgent(&engineFaultAgent{inj: e.inj, met: e.met})
	}
	if cfg.Accuracy.Enabled {
		e.acc = accwatch.New(cfg.Accuracy, reg, cfg.Log)
		e.tel.AccuracyJSON = func() any { return e.acc.Snapshot() }
	}
	if cfg.Ledger {
		e.led = telemetry.NewLedger(reg, 0)
		e.tel.LedgerJSON = func() any { return e.led.Snapshot() }
		// Attribution makes the simulator accumulate per-launch
		// closed-form cycles, the reconciliation target for the
		// ledger's cycle totals.
		e.sys.SetCycleAttribution(true)
	}
	if cfg.Timeline.Enabled {
		e.timeline = telemetry.NewTimeline(reg, cfg.Timeline)
		e.timeline.Start()
		e.tel.Timeline = e.timeline
	}

	perShard := cfg.DPUs / cfg.Shards
	capPerDPU := (cfg.MaxBatch + perShard - 1) / perShard
	for sID := 0; sID < cfg.Shards; sID++ {
		s := &shard{
			id:         sID,
			capPerDPU:  capPerDPU,
			inBuf:      make([]float32, capPerDPU*perShard),
			outBuf:     make([]float32, capPerDPU*perShard),
			launchIDs:  make([]int, 0, perShard),
			chunkOf:    make([]int, perShard),
			cores:      make([]pimsim.CoreProfile, perShard),
			deltas:     make([]uint64, perShard),
			failedLane: make([]bool, perShard),
			fast:       !cfg.Reference,
		}
		s.kernel = s.runLane
		for k := 0; k < perShard; k++ {
			id := sID*perShard + k
			s.ids = append(s.ids, id)
			s.lanes = append(s.lanes, k)
			d := e.sys.DPU(id)
			s.dpus = append(s.dpus, d)
			// Batches stage on the host, but each lane keeps its modeled
			// MRAM input and output buffers reserved, so table placement,
			// scrub offsets and capacity are those of the device kernel's
			// memory map.
			d.MRAM.MustAlloc(capPerDPU * 4)
			d.MRAM.MustAlloc(capPerDPU * 4)
			sc := new(lut.Scratch)
			sc.Grow(capPerDPU)
			sc.GrowQ(capPerDPU)
			sc.GrowT(capPerDPU)
			s.arena = append(s.arena, sc)
		}
		if e.inj != nil {
			s.rec = pimsim.NewSigRecorder(cfg.Cost)
			s.ioEnd = make([]int, perShard)
			s.goldenEnd = make([]int, perShard)
			s.golden = make([][]byte, perShard)
			s.goldenSum = make([]uint64, perShard)
			s.lanesScratch = make([]int, 0, perShard)
			s.medScratch = make([]uint64, 0, perShard)
			for k, d := range s.dpus {
				// Everything below this brk is the reserved I/O region;
				// tables built later live above it.
				s.ioEnd[k] = d.MRAM.Used()
				s.goldenEnd[k] = s.ioEnd[k]
			}
		}
		e.shards = append(e.shards, s)
	}
	e.wg.Add(1 + len(e.shards))
	go e.batcher()
	for _, s := range e.shards {
		go e.serveShard(s)
	}
	return e, nil
}

// System exposes the underlying simulated PIM system (for inspection;
// do not launch kernels on it while the engine is serving).
func (e *Engine) System() *pimsim.System { return e.sys }

// Stats returns a snapshot of the engine-wide counters. Individual
// fields are read atomically; the struct is not a consistent cut
// under concurrent traffic.
func (e *Engine) Stats() Stats {
	s := e.met.snapshot()
	s.QueueDepth = len(e.submit)
	return s
}

// QueueDepth returns the current coalescing-batcher backlog: requests
// accepted but not yet pulled into a batching round. It is the load
// signal the cluster router's least-loaded placement reads.
func (e *Engine) QueueDepth() int { return len(e.submit) }

// Observe returns the engine's telemetry handle: the metrics registry
// behind Stats and /metrics, plus the request tracer when TraceDepth
// is set. The handle is valid for the engine's lifetime.
func (e *Engine) Observe() *telemetry.Telemetry { return e.tel }

// TraceLast returns the span tree of the most recently completed
// request, or false when tracing is disabled or nothing has completed.
func (e *Engine) TraceLast() (*telemetry.Trace, bool) { return e.tracer.Last() }

// Traces returns the retained request traces, oldest first (nil when
// tracing is disabled).
func (e *Engine) Traces() []*telemetry.Trace { return e.tracer.Traces() }

// CachedSpecs returns how many (function, method) configurations hold
// resident tables.
func (e *Engine) CachedSpecs() int { return e.cache.size() }

// CachedPlans returns how many compiled batch plans are live.
func (e *Engine) CachedPlans() int { return e.plans.size() }

// InvalidateTables drops the resident tables for one configuration —
// the hot-swap hook for regenerating a function's tables (say, after
// retuning its fit). The next request for the spec rebuilds; every
// compiled batch plan self-invalidates via the bumped table-cache
// generation, so in-flight batches finish on the old tables (which
// physically remain — PIM memories never free) and no shard is
// paused. Returns whether tables were resident. Safe for
// concurrent use with serving traffic.
func (e *Engine) InvalidateTables(fn core.Function, p core.Params) bool {
	ok := e.cache.invalidate(makeSpec(fn, p))
	e.met.cachedSpecs.Set(int64(e.cache.size()))
	return ok
}

// Accuracy returns a point-in-time snapshot of the accuracy watcher's
// shadow-sample statistics; ok is false when accuracy monitoring is
// disabled (Config.Accuracy.Enabled false).
func (e *Engine) Accuracy() (accwatch.Snapshot, bool) {
	if e.acc == nil {
		return accwatch.Snapshot{}, false
	}
	return e.acc.Snapshot(), true
}

// AccuracyViolations evaluates the configured accuracy SLOs against
// the cumulative shadow-sample statistics and returns the failures
// (nil when monitoring is disabled or every series is within bounds).
// This is the batch-gate check: unlike the rolling-window breach
// counter it judges the whole session, so CI can fail a run whose
// final error exceeds the bounds even if no single window tripped.
func (e *Engine) AccuracyViolations() []accwatch.Violation {
	if e.acc == nil {
		return nil
	}
	return e.acc.CheckSLOs()
}

// EvaluateBatch evaluates fn(x) for every x under the given method
// parameters and returns the outputs with the request's cost report.
// It blocks until the result is complete (internally the work is
// batched and sharded with concurrent callers). Safe for concurrent
// use.
func (e *Engine) EvaluateBatch(fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, error) {
	return e.EvaluateBatchTenant("", fn, p, xs)
}

// EvaluateBatchTenant is EvaluateBatch with a tenant tag: the
// accuracy watcher attributes the request's shadow samples to the
// (function, method, tenant) series, so per-client quality is
// separable in /debug/accuracy. The tag does not affect batching,
// coalescing, or results; an empty tenant is the anonymous series.
func (e *Engine) EvaluateBatchTenant(tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, error) {
	out, st, _, err := e.evaluate(make([]float32, len(xs)), tenant, 0, false, fn, p, xs)
	return out, st, err
}

// EvaluateBatchInto is EvaluateBatchTenant writing the outputs into
// dst[:len(xs)] instead of a fresh slice, so a warm request allocates
// nothing. dst must hold len(xs) elements and must not overlap xs.
func (e *Engine) EvaluateBatchInto(dst []float32, tenant string, fn core.Function, p core.Params, xs []float32) (RequestStats, error) {
	if len(dst) < len(xs) {
		return RequestStats{}, fmt.Errorf("engine: output slice holds %d elements, need %d", len(dst), len(xs))
	}
	if overlaps(dst[:len(xs)], xs) {
		return RequestStats{}, errors.New("engine: output slice overlaps the inputs")
	}
	_, st, _, err := e.evaluate(dst, tenant, 0, false, fn, p, xs)
	return st, err
}

// EvaluateBatchTraced is EvaluateBatchTenant with an externally minted
// trace identity: the request's span tree takes traceID instead of an
// engine-local one, and the assembled trace is returned to the caller
// (in addition to the engine's own trace ring) so a router can graft
// it under its placement spans — one connected trace across layers.
// With tracing disabled (TraceDepth 0) the returned trace is nil and
// the call behaves exactly like EvaluateBatchTenant.
func (e *Engine) EvaluateBatchTraced(tenant string, traceID uint64, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, *telemetry.Trace, error) {
	return e.evaluate(make([]float32, len(xs)), tenant, traceID, true, fn, p, xs)
}

// evaluate is the one path behind the EvaluateBatch variants: it
// serves xs into dst[:len(xs)] and returns that slice, or nil when the
// request was rejected before it ran. extID, when nonzero, overrides
// the trace ring's minted ID; wantTrace asks finishRequest to hand the
// assembled span tree back on the request.
func (e *Engine) evaluate(dst []float32, tenant string, extID uint64, wantTrace bool, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, *telemetry.Trace, error) {
	spec := makeSpec(fn, p)
	if !spec.Par.Method.Supports(fn) {
		return nil, RequestStats{}, nil, fmt.Errorf("engine: %v does not support %v (see Table 2)", spec.Par.Method, fn)
	}
	if len(xs) == 0 {
		return nil, RequestStats{}, nil, nil
	}
	r := newRequest()
	r.spec, r.tenant, r.inputs, r.outputs = spec, tenant, xs, dst[:len(xs)]
	r.extID, r.wantTrace = extID, wantTrace
	defer releaseRequest(r)
	if err := e.roundTrip(r); err != nil {
		return nil, RequestStats{}, nil, err
	}
	return r.outputs, r.stats, r.trace, r.err
}

// overlaps reports whether a and b share an element.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const size = unsafe.Sizeof(float32(0))
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b))*size && pb < pa+uintptr(len(a))*size
}

// roundTrip submits r, waits for the shard that completes its last
// segment to release it, and finishes it on the calling goroutine. It
// fails only with ErrEngineClosed, before submitting; the request's
// own outcome is r.err.
func (e *Engine) roundTrip(r *request) error {
	r.enqueued = time.Now()
	r.stats.CacheHit = true // cleared by the first miss
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrEngineClosed
	}
	e.met.requests.Inc()
	e.submit <- r
	e.met.queueDepth.Set(int64(len(e.submit)))
	e.mu.RUnlock()
	<-r.done
	e.finishRequest(r)
	return nil
}

// Close drains in-flight work and stops the batcher and the shards.
// Subsequent EvaluateBatch calls fail.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.submit)
	e.mu.Unlock()
	e.wg.Wait()
	e.timeline.Close()
	e.prof.Close()
}

// batcher collects queued requests, groups them by spec, and emits
// packed batches. One round: take the first request (blocking), then
// coalesce whatever else is immediately queued — plus whatever
// arrives within BatchWindow, when configured — and flush.
func (e *Engine) batcher() {
	defer e.wg.Done()
	defer close(e.dispatch)
	// The round-grouping map and its per-spec request slices persist
	// across rounds (reset in place, requests nil'd so completed work
	// isn't retained): a steady-state round allocates nothing.
	bySpec := make(map[Spec][]*request)
	var order []Spec
	// Program requests are never coalesced or split: one batch carries
	// the whole program so its intermediates stay device-resident.
	var progs []*request
	// planned receives each spec's packed batches, reused across rounds.
	var planned []*batch
	add := func(r *request) {
		if r.prog != nil {
			progs = append(progs, r)
			return
		}
		lst := bySpec[r.spec]
		if len(lst) == 0 {
			order = append(order, r.spec)
		}
		bySpec[r.spec] = append(lst, r)
	}
	for {
		r, ok := <-e.submit
		if !ok {
			return
		}
		for _, sp := range order {
			lst := bySpec[sp]
			for i := range lst {
				lst[i] = nil
			}
			bySpec[sp] = lst[:0]
		}
		order = order[:0]
		for i := range progs {
			progs[i] = nil
		}
		progs = progs[:0]
		add(r)
		closed := false
		if e.cfg.BatchWindow > 0 {
			timer := time.NewTimer(e.cfg.BatchWindow)
		window:
			for {
				select {
				case r2, ok := <-e.submit:
					if !ok {
						closed = true
						break window
					}
					add(r2)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}
	drain:
		for {
			select {
			case r2, ok := <-e.submit:
				if !ok {
					closed = true
					break drain
				}
				add(r2)
			default:
				break drain
			}
		}
		e.met.queueDepth.Set(int64(len(e.submit)))
		for _, spec := range order {
			planned = planBatches(planned[:0], spec, bySpec[spec], e.cfg.MaxBatch)
			for i, b := range planned {
				planned[i] = nil // the shard owns the batch from here
				e.seq++
				b.seq = e.seq
				if e.tracer != nil {
					b.tr = &batchTrace{}
				}
				e.dispatch <- b
			}
		}
		for _, pr := range progs {
			b := newBatch(Spec{})
			b.prog = pr.prog
			n := len(pr.pinputs[0])
			b.segs = append(b.segs, seg{req: pr, off: 0, n: n})
			b.n = n
			pr.mu.Lock()
			pr.remaining++
			pr.mu.Unlock()
			e.seq++
			b.seq = e.seq
			if e.tracer != nil {
				b.tr = &batchTrace{}
			}
			e.dispatch <- b
		}
		if closed {
			return
		}
	}
}

// serveShard is a shard's only goroutine: it runs each dispatched
// batch to completion, then completes the batch's requests. Staging
// binds a fused program's arguments or a single-segment batch's request
// slices in place and packs a coalesced batch's segments into the
// shard's flat buffer with contiguous copies; then the rank-parallel
// host→PIM charge, the plan resolution (the plan and table cache
// hit/miss point), the executor (reliability.go), the PIM→host charge
// and a coalesced batch's copy-back. The trace stamps are separate
// clock reads so each span covers exactly its own work.
func (e *Engine) serveShard(s *shard) {
	defer e.wg.Done()
	for b := range e.dispatch {
		if b.tr != nil {
			b.tr.shard = s.id
			b.tr.inStart = time.Now()
		}
		_, inBytes := shardPlan(b.n, len(s.dpus))
		sg := b.segs[0]
		switch {
		case b.prog != nil:
			b.in, b.out = sg.req.pinputs, sg.req.outputs
			inBytes = b.prog.InBytes(b.n, len(s.dpus))
		case len(b.segs) == 1:
			b.in1[0] = sg.req.inputs[sg.off : sg.off+sg.n]
			b.in, b.out = b.in1[:], sg.req.outputs[sg.off:sg.off+sg.n]
		default:
			idx := 0
			for _, sg := range b.segs {
				idx += copy(s.inBuf[idx:], sg.req.inputs[sg.off:sg.off+sg.n])
			}
			b.in1[0] = s.inBuf[:b.n]
			b.in, b.out = b.in1[:], s.outBuf[:b.n]
		}
		e.chargeTransferIn(b, inBytes)
		b.bytesIn = inBytes
		if b.tr != nil {
			b.tr.inEnd = time.Now()
			b.tr.setupStart = time.Now()
		}
		b.plan, b.err = e.resolvePlan(s, b)
		if b.tr != nil {
			b.tr.setupEnd = time.Now()
		}
		if b.err == nil {
			if b.tr != nil {
				b.tr.kernStart = time.Now()
			}
			e.execute(s, b)
			if b.tr != nil {
				b.tr.kernEnd = time.Now()
			}
		}
		if b.tr != nil {
			b.tr.outStart = time.Now()
		}
		if b.err == nil && !b.hostEval {
			// Only the result crosses back: nothing for a scalar result,
			// whose value left in the final reduction gather, and nothing
			// when the host mirror produced the outputs.
			ob := b.plan.ex.Program().OutBytes(b.n, len(s.dpus))
			if b.remapped {
				ob = b.perDPU * 4 * len(b.lanes)
			}
			if ob > 0 {
				e.chargeTransferOut(b, ob)
				b.bytesOut += ob
			}
		}
		if b.err == nil && len(b.segs) > 1 {
			idx := 0
			for _, sg := range b.segs {
				idx += copy(sg.req.outputs[sg.off:sg.off+sg.n], b.out[idx:])
			}
		}
		if b.tr != nil {
			b.tr.outEnd = time.Now()
		}
		e.met.addBatch(b, s.id)
		if e.led != nil {
			e.chargeLedger(b)
		}
		for _, sg := range b.segs {
			if sg.req.complete(b, s.id) {
				sg.req.done <- struct{}{}
			}
		}
		releaseBatch(b)
	}
}

// finishRequest runs on the caller's goroutine once its request's last
// segment completed: observe the latency, count request-level errors
// (the per-request view the batch counter can't give), charge the
// ledger's request row, shadow-sample the outputs for accuracy
// monitoring, and assemble and publish the trace. The request is
// quiescent here — every shard is finished with it — so the reads and
// the TraceID write need no lock, and this work overlaps the shards'
// next batches instead of delaying them.
func (e *Engine) finishRequest(r *request) {
	end := time.Now()
	e.met.latency.Observe(r.stats.Latency.Seconds())
	if r.err != nil {
		e.met.requestErrors.Inc()
	}
	var traceID uint64
	if e.tracer != nil {
		if r.extID != 0 {
			traceID = r.extID // propagated from the router's mint
		} else {
			traceID = e.tracer.NextID()
		}
		r.stats.TraceID = traceID
	}
	if e.led != nil {
		d := telemetry.LedgerEntry{Requests: 1}
		if r.stats.Degraded {
			d.Degraded = 1
		}
		fn, method := r.labels()
		e.led.Add(telemetry.LedgerKey{Tenant: r.tenant, Function: fn, Method: method}, d)
	}
	// The shadow sampler compares outputs[i] against fn(inputs[i]); a
	// fused program's output is a whole-graph composite with no single
	// reference function, so programs skip accuracy sampling.
	if e.acc != nil && r.err == nil && r.prog == nil {
		// The shadow sampler only reads inputs/outputs; it never
		// touches the shards, so modeled cycles and outputs are
		// untouched whether it runs or not.
		lo, hi := r.spec.Fn.Domain()
		out := e.acc.Sample(accwatch.Request{
			Key: accwatch.Key{
				Function: r.spec.Fn.String(),
				Method:   methodLabel(r.spec.Par),
				Tenant:   r.tenant,
			},
			Ref: r.spec.Fn.Ref(),
			Lo:  lo, Hi: hi,
			Shard:   r.stats.ShardID,
			TraceID: traceID,
		}, r.inputs, r.outputs)
		r.sloBreached = out.Breached
	}
	if e.tracer != nil {
		tr := buildTrace(r, traceID, end, e.cfg.ProcName)
		if r.wantTrace {
			r.trace = tr
		}
		e.tracer.Push(tr)
	}
}

// methodLabel renders a request's method the way tplaccuracy labels
// it — "l-lut(i)" for the interpolated variant — so online series and
// offline reports key identically. The labels are rendered once, in
// interpLabels, so the per-launch, per-batch and per-request reads
// allocate nothing.
func methodLabel(p core.Params) string {
	if !p.Interp {
		return p.Method.String()
	}
	if m := int(p.Method); m >= 0 && m < len(interpLabels) {
		return interpLabels[m]
	}
	return p.Method.String() + "(i)"
}

// interpLabels holds every method's interpolated label, indexed by
// method.
var interpLabels = func() []string {
	var out []string
	for _, m := range core.Methods() {
		out = append(out, m.String()+"(i)")
	}
	return out
}()
