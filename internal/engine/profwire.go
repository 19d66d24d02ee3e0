package engine

import (
	"strconv"

	"transpimlib/internal/profiler"
)

// Profiler wiring: the executor's launch hands the collector the same
// per-lane launch record the metrics kernelProfiler reads, plus the
// shard's LaunchContext, filled on the shard's goroutine right after
// the launch. Contexts live one per shard because shards launch
// concurrently; each is touched only by its shard's goroutine.

// Profiler returns the modeled-cycle collector, nil unless
// Config.Profiler.Enabled.
func (e *Engine) Profiler() *profiler.Collector { return e.prof }

// ProfileSnapshot returns the cumulative profile; ok is false when
// profiling is disabled.
func (e *Engine) ProfileSnapshot() (profiler.Profile, bool) {
	if e.prof == nil {
		return profiler.Profile{}, false
	}
	return e.prof.Snapshot(), true
}

// profContext fills the shard's launch context from the batch just
// launched: function/method labels matching the cost ledger's convention
// (so profile cycles reconcile row-for-row), the launch stage (or
// fused-program phase), and the tenant segments in ledger order. The
// Segs slice is reused; steady state allocates nothing.
func (e *Engine) profContext(s *shard, b *batch, stage string) {
	lc := &s.lctx
	lc.Function, lc.Method = b.segs[0].req.labels()
	lc.Stage = stage
	lc.Segs = lc.Segs[:0]
	for _, sg := range b.segs {
		lc.Segs = append(lc.Segs, profiler.Seg{Tenant: sg.req.tenant, N: sg.n})
	}
	lc.N = b.n
}

// phaseNames pre-renders the common fused-program phase labels so the
// per-phase context write stays allocation-free for realistic graphs.
var phaseNames = [...]string{
	"phase0", "phase1", "phase2", "phase3", "phase4", "phase5", "phase6", "phase7",
	"phase8", "phase9", "phase10", "phase11", "phase12", "phase13", "phase14", "phase15",
}

// phaseStage names fused-program phase phi for the profiler's stage
// label.
func phaseStage(phi int) string {
	if phi >= 0 && phi < len(phaseNames) {
		return phaseNames[phi]
	}
	return "phase" + strconv.Itoa(phi)
}
