package engine

import (
	"transpimlib/internal/core"
	"transpimlib/internal/telemetry"
)

// MethodLabel renders method parameters the way tplaccuracy labels
// them — "l-lut(i)" for the interpolated variant — so cost-ledger rows,
// online accuracy series and offline reports all key identically.
func MethodLabel(p core.Params) string { return methodLabel(p) }

// Ledger returns a snapshot of the per-tenant cost ledger; empty when
// Config.Ledger is off.
func (e *Engine) Ledger() telemetry.LedgerSnapshot { return e.led.Snapshot() }

// chargeLedger attributes one completed batch to the (tenant, function,
// method) rows of the requests it carried. Integer quantities — kernel
// cycles and transfer bytes, charged per batch at its slowest-lane
// granularity — are split across segments by exact prefix
// partitioning: segment i takes total·cum_i/n − total·cum_{i−1}/n,
// so the shares always sum to the batch total and the ledger's cycle
// column reconciles ±0 against the simulator's attributed cycles.
// Runs on the serving shard's goroutine after the batch's last
// charge, where every batch field is quiescent.
func (e *Engine) chargeLedger(b *batch) {
	fn, method := b.segs[0].req.labels()
	bytesIn, bytesOut := b.bytesIn, b.bytesOut
	n := uint64(b.n)
	modeled := b.setup + b.tin + b.tcomp + b.tout
	var cum, cycPrev, binPrev, boutPrev uint64
	for _, sg := range b.segs {
		cum += uint64(sg.n)
		cyc := b.cycles * cum / n
		bin := uint64(bytesIn) * cum / n
		bout := uint64(bytesOut) * cum / n
		e.led.Add(telemetry.LedgerKey{
			Tenant:   sg.req.tenant,
			Function: fn,
			Method:   method,
		}, telemetry.LedgerEntry{
			Elements:       uint64(sg.n),
			KernelCycles:   cyc - cycPrev,
			BytesIn:        bin - binPrev,
			BytesOut:       bout - boutPrev,
			ModeledSeconds: modeled * float64(sg.n) / float64(b.n),
		})
		cycPrev, binPrev, boutPrev = cyc, bin, bout
	}
}
