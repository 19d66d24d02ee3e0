package engine

import (
	"transpimlib/internal/core"
	"transpimlib/internal/telemetry"
)

// This file names the engine's pipeline seams as small interfaces so
// the stages are separable: a BatchPlanner decides how queued requests
// become batches, a ShardPlanner decides how a batch's elements spread
// over a shard's lanes, and an Executor is the whole execution stage a
// front-end router can feed. The engine wires the default
// implementations at construction; internal/cluster treats each engine
// replica as one Executor and never reaches below this surface.
//
// Below the seams every batch takes one path. Transfer-in stages it on
// the host (a program's arguments or a single request's slices bound in
// place, a coalesced batch packed into the slot's flat buffers) and
// charges the padded inputs. Compute resolves the batch's compiled plan
// — a function batch runs its spec's one-node fusion program, a fused
// request its own — and runs it through the one executor (execute in
// reliability.go): per phase, launch, per-lane max-cycle reduction,
// Sync, with the recovery ladder as its only control flow.
// Single-function plans take every rung (scrub, retry, remap, timeout,
// hedge, degrade); programs take retry and degrade. Transfer-out
// charges the result and copies a coalesced batch's outputs back.

// BatchPlanner packs same-spec requests into dispatchable batches. It
// runs on the batcher goroutine; implementations must record each
// request's outstanding segment count (see planBatches).
type BatchPlanner interface {
	Plan(spec Spec, reqs []*request, maxBatch int) []*batch
}

// coalescePlanner is the default BatchPlanner: greedy packing up to
// maxBatch elements with oversized requests split across batches.
type coalescePlanner struct{}

func (coalescePlanner) Plan(spec Spec, reqs []*request, maxBatch int) []*batch {
	return planBatches(spec, reqs, maxBatch)
}

// ShardPlanner distributes a batch's n elements over a shard's k
// lanes, returning the per-lane element count and the padded
// rank-wide byte count charged per transfer direction.
type ShardPlanner interface {
	Plan(n, lanes int) (perLane, paddedBytes int)
}

// paddedPlanner is the default ShardPlanner: equal ceil(n/k) chunks
// padded so every bank moves the same buffer size and the host↔PIM
// interface stays in its parallel mode (§2.1).
type paddedPlanner struct{}

func (paddedPlanner) Plan(n, lanes int) (int, int) { return shardPlan(n, lanes) }

// Executor is the execution stage seen from above: something that can
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
