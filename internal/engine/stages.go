package engine

import (
	"transpimlib/internal/core"
	"transpimlib/internal/telemetry"
)

// This file names the engine's surface to a front-end router: an
// Executor evaluates requests, and internal/cluster treats each engine
// replica as one Executor and never reaches below it.
//
// Below that surface every batch takes one path, on one goroutine per
// shard (serveShard), run to completion like the paper's host driver:
// stage the batch on the host (a program's arguments or a single
// request's slices bound in place, a coalesced batch packed into the
// shard's flat buffers) and charge the padded inputs; resolve the
// batch's compiled plan — a function batch runs its spec's one-node
// fusion program, a fused request its own — and run it through the one
// executor (execute in reliability.go): per phase, launch, per-lane
// max-cycle reduction, Sync, with the recovery ladder as its only
// control flow. Single-function plans take every rung (scrub, retry,
// remap, timeout, hedge, degrade); programs take retry and degrade.
// Last, charge the result and copy a coalesced batch's outputs back.

// Executor is the engine seen from above: something that can
// evaluate a batch for a tenant, report its backlog and counters, and
// shut down. *Engine is the canonical implementation; the cluster
// router feeds requests to a set of Executors and a test can feed it
// fakes.
type Executor interface {
	// EvaluateBatchTenant evaluates fn(x) for every x under p,
	// attributing the request to tenant. Safe for concurrent use.
	EvaluateBatchTenant(tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, error)
	// QueueDepth is the current coalescing-batcher backlog — the
	// router's least-loaded placement signal.
	QueueDepth() int
	// Stats snapshots the executor-wide counters.
	Stats() Stats
	// Close drains in-flight work and stops the executor.
	Close()
}

var _ Executor = (*Engine)(nil)

// TracedExecutor is an Executor that accepts an externally minted
// trace identity and returns the request's assembled span tree, so a
// router can graft the execution-side spans under its own placement
// spans — one connected trace across layers. Executors without tracing
// enabled return a nil trace.
type TracedExecutor interface {
	Executor
	EvaluateBatchTraced(tenant string, traceID uint64, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, *telemetry.Trace, error)
}

var _ TracedExecutor = (*Engine)(nil)
