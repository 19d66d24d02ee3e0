package engine

import (
	"fmt"

	"transpimlib/internal/core"
	"transpimlib/internal/fusion"
)

// This file is the engine's fused-program front end: a compiled
// fusion.Program rides the same submit → batcher → shard path and the
// same executor as ordinary requests (which run as one-node programs),
// but one batch carries the whole program. Its intermediate vectors
// never cross the host boundary — transfer-in ships the input vectors
// (plus the initial scalar broadcasts) once, each phase is one fused
// kernel launch, the 4-byte-per-lane reduction syncs are the only
// mid-program traffic, and transfer-out ships only the result. The per-op baseline
// (EvaluateProgramPerOp) pays a full round trip per node through the
// ordinary paths instead; outputs are bit-identical between the two.

// ProgramStats reports one fused program evaluation: the underlying
// request costs plus the byte model the fusion compiler guarantees.
type ProgramStats struct {
	RequestStats

	// FusedBytes is the total host↔PIM bytes this evaluation moved
	// (inputs + scalar broadcasts + reduction syncs + result);
	// PerOpBytes is what the per-op baseline moves for the same
	// program and batch; SavedBytes is the difference. The engine's
	// metered transfers reconcile exactly against these (the
	// differential suite's contract).
	FusedBytes int
	PerOpBytes int
	SavedBytes int

	// SavedTransferSeconds/Cycles convert the byte saving to modeled
	// transfer time under the system's rank-parallel bandwidths (split
	// per direction) and to equivalent PIM clock cycles.
	SavedTransferSeconds float64
	SavedTransferCycles  uint64
}

// PerOpStats aggregates the per-op baseline evaluation of a program:
// one ordinary engine round trip per device node.
type PerOpStats struct {
	// Requests is how many engine round trips the decomposition made.
	Requests int
	// MovedBytes is the total host↔PIM bytes the baseline moved
	// (analytic, reconciled against the engine's byte counters by the
	// differential suite).
	MovedBytes int

	KernelCycles       uint64
	SetupSeconds       float64
	TransferInSeconds  float64
	ComputeSeconds     float64
	TransferOutSeconds float64
}

// ModeledSeconds returns the baseline's total modeled pipeline time.
func (s PerOpStats) ModeledSeconds() float64 {
	return s.SetupSeconds + s.TransferInSeconds + s.ComputeSeconds + s.TransferOutSeconds
}

// CachedProgramPlans returns how many of the live compiled plans run
// fused programs.
func (e *Engine) CachedProgramPlans() int { return e.plans.programs() }

// CompileProgram compiles a fused program against this engine's cost
// model under the given method parameters. The compiled program is
// reusable across evaluations and engines sharing the same cost model.
func (e *Engine) CompileProgram(p *fusion.Program, par core.Params) (*fusion.Compiled, error) {
	return fusion.Compile(p, par, e.cfg.Cost)
}

// EvaluateProgram evaluates a compiled fused program over the given
// vector inputs and runtime scalars and returns the result (length n,
// or 1 for a scalar-returning program) with its cost report. Safe for
// concurrent use.
func (e *Engine) EvaluateProgram(c *fusion.Compiled, inputs [][]float32, scalars []float32) ([]float32, ProgramStats, error) {
	return e.EvaluateProgramTenant("", c, inputs, scalars)
}

// EvaluateProgramTenant is EvaluateProgram with a tenant tag for
// ledger attribution (the "fused:<program-name>" method rows).
func (e *Engine) EvaluateProgramTenant(tenant string, c *fusion.Compiled, inputs [][]float32, scalars []float32) ([]float32, ProgramStats, error) {
	n, err := c.CheckArgs(inputs, scalars)
	if err != nil {
		return nil, ProgramStats{}, err
	}
	if n > e.cfg.MaxBatch {
		// A fused program's intermediates live on-device for the whole
		// batch; splitting would break reduction semantics, so the batch
		// bound is a hard ceiling here rather than a split point.
		return nil, ProgramStats{}, fmt.Errorf("engine: program batch %d exceeds MaxBatch %d (fused programs are not split)", n, e.cfg.MaxBatch)
	}
	outLen := n
	if c.ScalarResult() {
		outLen = 1
	}
	r := newRequest()
	r.prog, r.pinputs, r.pscalars, r.tenant = c, inputs, scalars, tenant
	r.outputs = make([]float32, outLen)
	defer releaseRequest(r)
	if err := e.roundTrip(r); err != nil {
		return nil, ProgramStats{}, err
	}
	k := e.cfg.DPUs / e.cfg.Shards
	st := ProgramStats{RequestStats: r.stats}
	st.FusedBytes = c.FusedBytes(n, k)
	st.PerOpBytes = c.PerOpBytes(n, k)
	st.SavedBytes = st.PerOpBytes - st.FusedBytes
	sc := e.sys.Config()
	st.SavedTransferSeconds = c.SavedTransferSeconds(n, k, sc.HostToPIMBandwidth, sc.PIMToHostBandwidth)
	st.SavedTransferCycles = uint64(st.SavedTransferSeconds * sc.ClockHz)
	return r.outputs, st, r.err
}

// EvaluateProgramPerOp evaluates the same program through the per-op
// baseline: every transcendental node goes through the ordinary batch
// path, every vector elementwise and reduction node through a
// single-node mini program — one full host↔PIM round trip per device
// node, with host scalar arithmetic free exactly as in the fused path.
// Outputs are bit-identical to EvaluateProgram.
func (e *Engine) EvaluateProgramPerOp(tenant string, c *fusion.Compiled, inputs [][]float32, scalars []float32) ([]float32, PerOpStats, error) {
	var st PerOpStats
	add := func(rs RequestStats) {
		st.Requests++
		st.KernelCycles += rs.KernelCycles
		st.SetupSeconds += rs.SetupSeconds
		st.TransferInSeconds += rs.TransferInSeconds
		st.ComputeSeconds += rs.ComputeSeconds
		st.TransferOutSeconds += rs.TransferOutSeconds
	}
	out, err := fusion.RunPerOp(c, inputs, scalars,
		func(fn core.Function, xs []float32) ([]float32, error) {
			ys, rs, err := e.EvaluateBatchTenant(tenant, fn, c.Params(), xs)
			if err == nil {
				add(rs)
			}
			return ys, err
		},
		func(mini *fusion.Compiled, ins [][]float32, ss []float32) ([]float32, error) {
			ys, ps, err := e.EvaluateProgramTenant(tenant, mini, ins, ss)
			if err == nil {
				add(ps.RequestStats)
			}
			return ys, err
		})
	if err != nil {
		return nil, PerOpStats{}, err
	}
	st.MovedBytes = c.PerOpBytes(len(inputs[0]), e.cfg.DPUs/e.cfg.Shards)
	return out, st, nil
}
