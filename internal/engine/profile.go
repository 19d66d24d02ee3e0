package engine

import (
	"fmt"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/telemetry"
)

// kernelProfiler accumulates the executor's per-launch core deltas into
// the telemetry registry: instruction-class operation/cycle totals (the
// paper's Fig.-7-style mul/shift/load/branch breakdown, live) and
// per-DPU kernel/DMA cycle attribution. All counters are pre-created
// at construction so observe — called by launch once per launch on the
// shard's goroutine — does no allocation and takes no registry lock.
type kernelProfiler struct {
	launches *telemetry.Counter
	opOps    []*telemetry.Counter // per OpClass
	opCycles []*telemetry.Counter
	dpuKern  []*telemetry.Counter // per DPU id
	dpuIssue []*telemetry.Counter
	dpuDMA   []*telemetry.Counter
}

func newKernelProfiler(reg *telemetry.Registry, dpus int) *kernelProfiler {
	p := &kernelProfiler{
		launches: reg.Counter("pim_launches_total", "kernel launches observed"),
	}
	for cl := pimsim.OpClass(0); cl < pimsim.NumOpClasses(); cl++ {
		lb := fmt.Sprintf("{class=%q}", cl.String())
		p.opOps = append(p.opOps, reg.Counter("pim_ops_total"+lb, "instructions retired per operation class"))
		p.opCycles = append(p.opCycles, reg.Counter("pim_op_cycles_total"+lb, "issue cycles charged per operation class"))
	}
	for d := 0; d < dpus; d++ {
		lb := fmt.Sprintf("{dpu=%q}", fmt.Sprint(d))
		p.dpuKern = append(p.dpuKern, reg.Counter("pim_dpu_kernel_cycles_total"+lb, "modeled kernel cycles per core"))
		p.dpuIssue = append(p.dpuIssue, reg.Counter("pim_dpu_issue_cycles_total"+lb, "pipeline-issue cycles per core"))
		p.dpuDMA = append(p.dpuDMA, reg.Counter("pim_dpu_dma_cycles_total"+lb, "DMA-engine busy cycles per core"))
	}
	return p
}

// observe adds one launch's per-core deltas. Concurrent shards contend
// only on the atomic counters.
func (p *kernelProfiler) observe(prof pimsim.LaunchProfile) {
	p.launches.Inc()
	for i := range prof.Cores {
		c := &prof.Cores[i]
		if c.DPU >= 0 && c.DPU < len(p.dpuKern) {
			p.dpuKern[c.DPU].Add(c.Cycles)
			p.dpuIssue[c.DPU].Add(c.IssueCycles)
			p.dpuDMA[c.DPU].Add(c.DMACycles)
		}
		for cl := range c.Counters.Ops {
			p.opOps[cl].Add(c.Counters.Ops[cl])
			p.opCycles[cl].Add(c.Counters.Cycles[cl])
		}
	}
}
