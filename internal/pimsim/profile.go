package pimsim

// CoreProfile is one PIM core's accounting delta over a single
// kernel launch: modeled cycles, the issue/DMA split behind them, and
// the per-instruction-class operation and cycle counters — the same
// decomposition as the paper's Fig. 7 per-method cycle breakdowns
// (mul vs. shift vs. load vs. branch), but captured per core per
// launch on a live system.
type CoreProfile struct {
	DPU         int
	Tasklets    int
	Cycles      uint64 // modeled completion cycles of this launch
	IssueCycles uint64 // pipeline-issue cycles charged
	DMACycles   uint64 // DMA-engine busy cycles
	Counters    Counters
}

// LaunchProfile is the per-core accounting of one launch.
type LaunchProfile struct {
	Cores []CoreProfile
}

// Total merges every core's per-class counters.
func (p LaunchProfile) Total() Counters {
	var t Counters
	for i := range p.Cores {
		t.Add(&p.Cores[i].Counters)
	}
	return t
}
