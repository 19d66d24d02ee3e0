package engine

import (
	"strconv"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/profiler"
)

// Profiler wiring: the collector consumes the same pimsim launch
// observer the metrics kernelProfiler uses, plus a per-shard
// LaunchContext the shard's goroutine fills immediately before each
// LaunchShard. The observer runs synchronously on the launching
// goroutine, so the context handoff needs no lock; contexts live one
// per shard because shards launch concurrently.

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

// observeLaunch routes a launch profile to the owning shard's context.
// Shard resolution from the first core id is exact: every engine
// launch (ordinary, program phase, remap, hedge) targets cores of a
// single shard's contiguous range.
func (e *Engine) observeLaunch(prof pimsim.LaunchProfile) {
	if len(prof.Cores) == 0 {
		return
	}
	perShard := e.cfg.DPUs / e.cfg.Shards
	sid := prof.Cores[0].DPU / perShard
	if sid < 0 || sid >= len(e.shards) {
		return
	}
	e.prof.Observe(&e.shards[sid].lctx, prof)
}

// profContext fills the shard's launch context from the batch about to
// launch: function/method labels matching the cost ledger's convention
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
