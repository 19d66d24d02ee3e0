package engine

import (
	"sync"
	"time"

	"transpimlib/internal/fusion"
	"transpimlib/internal/telemetry"
)

// request is one in-flight EvaluateBatch call. A request may be split
// into several batches (when larger than MaxBatch) and may share a
// batch with other requests (when coalesced); it completes when its
// last segment's batch completes.
type request struct {
	spec Spec
	// tenant attributes the request's shadow samples to a
	// per-(function, method, tenant) accuracy series; "" is the
	// anonymous series. It does not affect batching or results.
	tenant   string
	inputs   []float32
	outputs  []float32
	enqueued time.Time
	// done is 1-buffered: the shard that completes the request's last
	// segment sends on it once, and roundTrip, the only waiter,
	// receives. It lives as long as the pooled request.
	done chan struct{}

	// Fused-program request fields (program.go): prog is the compiled
	// program and pinputs/pscalars its bound arguments; spec/inputs are
	// unused when prog is set. outputs holds the program result (the
	// batch size, or 1 for a scalar-returning program).
	prog     *fusion.Compiled
	pinputs  [][]float32
	pscalars []float32

	mu        sync.Mutex
	remaining int // segments not yet completed
	err       error
	stats     RequestStats

	// sloBreached is set by finishRequest's shadow-sampling hook
	// when this request's samples closed a window that failed an
	// accuracy SLO; buildTrace annotates the root span with it. The
	// request is quiescent when it is written (see finishRequest).
	sloBreached bool

	// batchTraces collects the stage stamps of every batch the request
	// rode in, in completion order; nil unless tracing is enabled.
	batchTraces []batchRef

	// extID, when nonzero, is an externally minted trace ID (the
	// cluster router's) that replaces the tracer's own; wantTrace asks
	// finishRequest to store the assembled span tree in trace before
	// releasing the caller (see EvaluateBatchTraced). Both are written
	// before submit and read only after the request is quiescent.
	extID     uint64
	wantTrace bool
	trace     *telemetry.Trace
}

// requestPool recycles requests with their done channels, so a warm
// round trip allocates nothing but the caller's output. A request goes
// back (releaseRequest) once its caller has copied out the outputs,
// stats, trace and error; roundTrip is its only waiter, so nothing can
// abandon it mid-flight.
var requestPool = sync.Pool{New: func() any { return &request{done: make(chan struct{}, 1)} }}

// newRequest takes a zeroed request from the pool.
func newRequest() *request { return requestPool.Get().(*request) }

// releaseRequest returns a finished request to the pool, dropping every
// reference it holds but keeping its done channel and the capacity of
// its batch-trace list.
func releaseRequest(r *request) {
	done, traces := r.done, r.batchTraces
	clear(traces)
	*r = request{done: done, batchTraces: traces[:0]}
	requestPool.Put(r)
}

// batchRef pairs a completed batch with its wall-clock stage stamps
// for trace assembly.
type batchRef struct {
	b  *batch
	tr *batchTrace
}

// complete records one completed batch against the request. It reports
// whether this was the request's last outstanding segment; the shard
// then sends on done, and the released caller finishes the request
// (finishRequest).
func (r *request) complete(b *batch, shardID int) (last bool) {
	r.mu.Lock()
	if b.err != nil && r.err == nil {
		r.err = b.err
	}
	r.stats.ShardID = shardID
	r.stats.Batches++
	r.stats.BatchElements += b.n
	if !b.hit {
		r.stats.CacheHit = false
	}
	r.stats.SetupSeconds += b.setup
	r.stats.TransferInSeconds += b.tin
	r.stats.ComputeSeconds += b.tcomp
	r.stats.TransferOutSeconds += b.tout
	r.stats.KernelCycles += b.cycles
	if b.degraded {
		r.stats.Degraded = true
	}
	r.stats.Retries += b.retries
	if b.remapped {
		r.stats.Remaps++
	}
	if b.hedged {
		r.stats.Hedges++
	}
	if b.tr != nil {
		r.batchTraces = append(r.batchTraces, batchRef{b: b, tr: b.tr})
	}
	r.remaining--
	last = r.remaining == 0
	if last {
		r.stats.Latency = time.Since(r.enqueued)
	}
	r.mu.Unlock()
	return last
}

// labels returns the request's ledger, profiler and log labels: the
// function and its method label, or "program" and "fused:<name>" for a
// fused program (its own rows, never the overflow bucket). Both are
// rendered once per spec or compiled program, so reading them
// allocates nothing.
func (r *request) labels() (fn, method string) {
	if r.prog != nil {
		return "program", r.prog.MethodLabel()
	}
	return r.spec.Fn.String(), methodLabel(r.spec.Par)
}

// seg is a contiguous slice of one request packed into a batch.
type seg struct {
	req *request
	off int // offset into req.inputs / req.outputs
	n   int
}

// batch is the engine's unit of work: same-spec segments coalesced
// up to MaxBatch elements, dispatched to one shard, and run there to
// completion: transfer-in → kernel → transfer-out.
type batch struct {
	spec Spec
	segs []seg
	n    int // total elements

	// seq is the batch's dispatch sequence number — the deterministic
	// clock fault-injection decisions key on. Assigned by the batcher.
	seq uint64

	// Set by the serving shard.
	perDPU int     // elements per lane of the layout the batch ran on
	hit    bool    // tables were resident on the serving shard
	setup  float64 // modeled setup charged (cache miss only)
	tin    float64 // modeled host→PIM seconds
	tcomp  float64 // modeled kernel seconds (slowest core)
	tout   float64 // modeled PIM→host seconds
	cycles uint64  // modeled kernel cycles (slowest core)
	err    error

	// bytesIn/bytesOut are the metered host↔PIM bytes: the rank-padded
	// inputs (plus a program's initial scalar broadcasts) at
	// transfer-in, a program's reduction syncs, and the result at
	// transfer-out. For programs they reconcile exactly against the
	// compiler's analytic byte model.
	bytesIn, bytesOut int

	// prog is a fused-program batch's compiled program (program.go),
	// carried whole as one single-segment batch; nil for a function
	// batch, which runs its spec's one-node program.
	prog *fusion.Compiled

	// Host staging, decided at transfer-in: in/out are what the plan's
	// Exec binds — a program's own arguments, a single-segment batch's
	// request slices, or a coalesced batch's packing in the shard's flat
	// buffers. in1 backs in for function batches.
	in  [][]float32
	in1 [1][]float32
	out []float32

	// plan is the compiled plan the shard resolved (plan.go).
	plan *batchPlan

	// Reliability outcomes (fault injection only; see reliability.go).
	lanes    []int // healthy-lane chunk layout when remapped
	retries  int   // launch + transfer retries spent on this batch
	remapped bool  // served by a subset of the shard's cores
	hedged   bool  // slowest lane relaunched
	degraded bool  // completed via the recovery ladder's last rung
	hostEval bool  // outputs produced by the host mirror
	inFailed bool  // transfer-in exhausted its retries

	// tr holds the wall-clock stage stamps when tracing is enabled;
	// nil otherwise, so the disabled path skips every time.Now call.
	tr *batchTrace
}

// batchPool recycles completed batches (and their segment slices) so
// the steady state allocates nothing per batch. Traced batches
// are retained by request span trees and bypass the pool.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// newBatch takes a recycled batch from the pool, reset for spec but
// keeping its segment slice capacity.
func newBatch(spec Spec) *batch {
	b := batchPool.Get().(*batch)
	segs := b.segs[:0]
	lanes := b.lanes[:0]
	*b = batch{spec: spec, segs: segs, lanes: lanes}
	return b
}

// releaseBatch returns a completed batch to the pool. Batches with
// trace stamps are kept alive by their requests' traces and must not
// be recycled.
func releaseBatch(b *batch) {
	if b.tr != nil {
		return
	}
	batchPool.Put(b)
}

// planBatches packs same-spec requests into batches of at most
// maxBatch elements, splitting oversized requests across several
// batches, appends them to out, and records each request's
// outstanding segment count. The batcher passes a slice it owns and
// reuses, so a steady-state round allocates nothing. Pure packing
// logic, separated from the batcher goroutine for testing.
func planBatches(out []*batch, spec Spec, reqs []*request, maxBatch int) []*batch {
	b := newBatch(spec)
	for _, r := range reqs {
		segments := 0
		for off := 0; off < len(r.inputs); {
			space := maxBatch - b.n
			if space == 0 {
				out = append(out, b)
				b = newBatch(spec)
				space = maxBatch
			}
			n := len(r.inputs) - off
			if n > space {
				n = space
			}
			b.segs = append(b.segs, seg{req: r, off: off, n: n})
			b.n += n
			off += n
			segments++
		}
		r.mu.Lock()
		r.remaining += segments
		r.mu.Unlock()
	}
	if b.n > 0 {
		out = append(out, b)
	} else {
		releaseBatch(b)
	}
	return out
}

// shardPlan distributes n batch elements over k cores: equal
// ceil(n/k)-element chunks, padded so every bank receives the same
// buffer size and the host↔PIM interface stays in its parallel mode
// (unequal per-bank buffers would degrade to the serial bandwidth,
// §2.1). Returns elements per core and the padded rank-wide byte
// count per direction.
func shardPlan(n, k int) (perDPU, paddedBytes int) {
	perDPU = (n + k - 1) / k
	return perDPU, perDPU * 4 * k
}
