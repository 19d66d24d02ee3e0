package engine

import (
	"errors"

	"transpimlib/internal/faultsim"
	"transpimlib/internal/pimsim"
)

// This file is the engine's executor and its recovery ladder. Every
// batch runs through execute; the ladder's rungs beyond the first only
// fire when Config.Faults enables the injector (e.inj != nil): launch
// retries with modeled exponential backoff, health-driven shard
// remapping onto the surviving cores, the launch timeout, optional
// hedged relaunches for stragglers, MRAM table scrubbing with checksum
// repair, and — when everything else is exhausted — graceful
// degradation onto the bit-exact host mirrors. Single-function plans
// take every rung; fused programs take retry and degrade. With
// injection disabled the first attempt always succeeds and the
// engine is bit-identical to the fault-free one.

// engineFaultAgent adapts the faultsim injector to the simulator's
// FaultAgent hook, counting injected faults into the engine metrics.
// It keeps faultsim free of pimsim imports.
type engineFaultAgent struct {
	inj *faultsim.Injector
	met *metrics
}

func (a *engineFaultAgent) Launch(seq, attempt uint64, lane int) pimsim.LaunchVerdict {
	fail, slow := a.inj.LaunchDecision(seq, uint64(lane), attempt)
	if fail {
		a.met.faults[faultsim.DPUFail].Inc()
		return pimsim.LaunchVerdict{Fail: true}
	}
	if slow > 1 {
		a.met.faults[faultsim.DPUSlow].Inc()
		return pimsim.LaunchVerdict{SlowFactor: slow}
	}
	return pimsim.LaunchVerdict{}
}

func (a *engineFaultAgent) Transfer(seq, attempt uint64, out bool) bool {
	c := faultsim.TransferIn
	if out {
		c = faultsim.TransferOut
	}
	if a.inj.TransferDecision(c, seq, attempt) {
		a.met.faults[c].Inc()
		return true
	}
	return false
}

// chargeTransferIn is the checked host→PIM charge with bounded retry:
// every attempt (failed ones included) costs the transfer time, each
// retry adds the modeled backoff. Exhaustion marks the batch so the
// executor degrades it to the host mirror — the inputs are still
// in host staging, so no result is lost. Without injection the first
// attempt always succeeds: the plain rank-parallel charge.
func (e *Engine) chargeTransferIn(b *batch, padded int) {
	bw := e.sys.Config().HostToPIMBandwidth
	for attempt := uint64(0); ; attempt++ {
		err := e.sys.TryChargeHostToPIM(b.seq, attempt, padded, true)
		b.tin += float64(padded) / bw
		if err == nil {
			return
		}
		e.met.transferRetries.Inc()
		if attempt >= uint64(e.rel.MaxRetries) {
			b.inFailed = true
			return
		}
		b.retries++
		b.tin += e.rel.backoff(attempt + 1)
	}
}

// chargeTransferOut mirrors chargeTransferIn for PIM→host. On
// exhaustion the results — already gathered into host staging and
// bit-exact by construction — stand in for a host-mirror re-evaluation
// and the batch is marked degraded.
func (e *Engine) chargeTransferOut(b *batch, padded int) {
	bw := e.sys.Config().PIMToHostBandwidth
	for attempt := uint64(0); ; attempt++ {
		err := e.sys.TryChargePIMToHost(b.seq, attempt, padded, true)
		b.tout += float64(padded) / bw
		if err == nil {
			return
		}
		e.met.transferRetries.Inc()
		if attempt >= uint64(e.rel.MaxRetries) {
			if !b.degraded {
				b.degraded = true
				e.met.degraded.Inc()
			}
			return
		}
		b.retries++
		b.tout += e.rel.backoff(attempt + 1)
	}
}

// fnv1a is the per-lane table checksum (FNV-1a 64).
func fnv1a(p []byte) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, b := range p {
		h = (h ^ uint64(b)) * 0x1099511628211
	}
	return h
}

// captureGolden refreshes each lane's golden table image — the MRAM
// region between the reserved I/O buffers and the allocation brk,
// i.e. every table resident on the core — whenever a build grew it.
// The golden copy plus its checksum are the scrub reference.
func (e *Engine) captureGolden(s *shard) {
	for k, d := range s.dpus {
		end := d.MRAM.Used()
		if end == s.goldenEnd[k] {
			continue
		}
		n := end - s.ioEnd[k]
		if cap(s.golden[k]) < n {
			s.golden[k] = make([]byte, n)
		}
		s.golden[k] = s.golden[k][:n]
		d.MRAM.Read(s.ioEnd[k], s.golden[k])
		s.goldenSum[k] = fnv1a(s.golden[k])
		s.goldenEnd[k] = end
	}
}

// flipAndRepair injects this batch's scheduled MRAM bit-flips into the
// lanes' table regions, then scrubs every lane: a checksum mismatch
// rewrites the golden image (charged as a serial host→PIM re-stage
// into the batch's setup time). Tables are verified-clean when it
// returns, so kernels and mirror-nil fallbacks never read corrupted
// entries.
func (e *Engine) flipAndRepair(s *shard, b *batch) {
	bw := e.sys.Config().HostToPIMBandwidth
	for k, d := range s.dpus {
		region := s.golden[k]
		if off, bit, ok := e.inj.FlipBit(b.seq, uint64(k), len(region)); ok {
			e.met.faults[faultsim.BitFlip].Inc()
			addr := s.ioEnd[k] + off
			var one [1]byte
			d.MRAM.Read(addr, one[:])
			one[0] ^= 1 << bit
			d.MRAM.Write(addr, one[:])
		}
		if len(region) == 0 {
			continue
		}
		if cap(s.scratch) < len(region) {
			s.scratch = make([]byte, len(region))
		}
		cur := s.scratch[:len(region)]
		d.MRAM.Read(s.ioEnd[k], cur)
		if fnv1a(cur) == s.goldenSum[k] {
			continue
		}
		e.met.corruptions.Inc()
		d.MRAM.Write(s.ioEnd[k], region)
		e.sys.ChargeHostToPIM(len(region), false)
		b.setup += float64(len(region)) / bw
		e.met.repairs.Inc()
		if e.log != nil {
			e.log.Warn("table corruption repaired",
				"shard", s.id, "dpu", s.ids[k], "seq", b.seq,
				"region_bytes", len(region))
		}
	}
}

// healthyLanes returns the shard-local indices of the cores allowed to
// serve seq (probation re-admissions happen inside available).
func (e *Engine) healthyLanes(s *shard, seq uint64) []int {
	lanes := s.lanesScratch[:0]
	for k, id := range s.ids {
		if e.health.Available(id, seq) {
			lanes = append(lanes, k)
		}
	}
	s.lanesScratch = lanes
	return lanes
}

// restage charges re-shipping the batch's inputs to the healthy lanes
// under the remapped ceil(n/len(lanes)) layout: one more rank-parallel
// host→PIM transfer (the host staging copy stays bound).
func (e *Engine) restage(b *batch, lanes []int, per int) {
	padded := per * 4 * len(lanes)
	e.sys.ChargeHostToPIM(padded, true)
	b.tin += float64(padded) / e.sys.Config().HostToPIMBandwidth
}

// execute runs a planned batch phase by phase: launch the phase on the
// shard's lanes, reduce the per-lane cycles to the slowest lane's, then
// Sync (gather reductions, broadcast the scalars later phases read).
// The recovery ladder is its only control flow; a clean run is rung 0
// succeeding. A single-function plan climbs every rung — table scrub,
// retry with backoff, remap onto healthy lanes, launch timeout, hedge —
// while a fused program retries and then degrades; either kind's last
// rung is the bit-exact host mirror.
func (e *Engine) execute(s *shard, b *batch) {
	ex := b.plan.ex
	b.perDPU = b.plan.perDPU
	ex.Bind(b.in, b.segs[0].req.pscalars, b.out, b.n, b.perDPU)
	if b.plan.single && e.inj != nil && e.inj.Active(faultsim.BitFlip) {
		e.captureGolden(s)
		e.flipAndRepair(s, b)
	}
	if b.inFailed {
		// Transfer-in never delivered the inputs to the cores; the host
		// staging copy still has them.
		e.degrade(s, b)
		return
	}
	sc := e.sys.Config()
	for phi := 0; phi < ex.NumPhases(); phi++ {
		if !e.launchPhase(s, b, phi) {
			return
		}
		// These small transfers ride the plain charge paths even under
		// injection — the ladder guards the bulk transfers and the
		// launches.
		gather, bcast := ex.Sync(phi)
		if gather > 0 {
			e.sys.ChargePIMToHost(gather, true)
			b.tout += float64(gather) / sc.PIMToHostBandwidth
			b.bytesOut += gather
		}
		if bcast > 0 {
			e.sys.ChargeHostToPIM(bcast, true)
			b.tin += float64(bcast) / sc.HostToPIMBandwidth
			b.bytesIn += bcast
		}
	}
}

// launchPhase launches phase phi until an attempt succeeds, climbing
// the ladder on each failure — a fresh injector draw per attempt — and
// reports false when the batch ended instead: degraded to the host
// mirror, or failed with a kernel error. Every attempt's slowest-lane
// cycles are charged; failed attempts still burned them.
func (e *Engine) launchPhase(s *shard, b *batch, phi int) bool {
	full := b.plan.single && e.health != nil // the health-driven rungs
	clock := e.sys.Config().ClockHz
	stage := phaseStage(phi)
	if b.plan.single {
		stage = "kernel"
	}
	lanes, per := s.lanes, b.perDPU
	staged := -1 // lane count of the current remapped layout; -1 = the full layout
	if full {
		clear(s.failedLane)
	}
	for attempt := uint64(0); ; attempt++ {
		if full {
			// The remap rung: launch only on the lanes the health
			// tracker allows, re-laid over them and re-staged.
			lanes = e.healthyLanes(s, b.seq)
			if len(lanes) < (b.n+s.capPerDPU-1)/s.capPerDPU {
				e.degrade(s, b)
				return false
			}
			if p := (b.n + len(lanes) - 1) / len(lanes); p != per {
				per = p
				b.plan.ex.Bind(b.in, nil, b.out, b.n, per)
			}
			stage = "kernel"
			if len(lanes) < len(s.ids) {
				stage = "remap"
				if len(lanes) != staged {
					e.restage(b, lanes, per)
					staged = len(lanes)
					if !b.remapped {
						b.remapped = true
						e.met.remaps.Inc()
					}
				}
			}
		}

		mx, slowest, err := e.launch(s, b, phi, attempt, lanes, 0, stage)
		timedOut := full && e.rel.LaunchTimeout > 0 && float64(mx)/clock > e.rel.LaunchTimeout
		if err == nil && !timedOut {
			if full {
				mx = e.maybeHedge(s, b, lanes, per, mx)
			}
			b.cycles += mx
			b.tcomp += float64(mx) / clock
			if full {
				for _, k := range lanes {
					// A lane that failed earlier in this batch keeps its
					// streak: a retry succeeding elsewhere says nothing
					// good about it.
					if !s.failedLane[k] {
						e.health.RecordSuccess(s.ids[k])
					}
				}
				e.met.quarantined.Set(int64(e.health.QuarantinedCount()))
				if b.remapped {
					b.lanes = append(b.lanes[:0], lanes...)
					b.perDPU = per
				}
			}
			return true
		}

		b.cycles += mx
		b.tcomp += float64(mx) / clock
		if err != nil {
			var le *pimsim.LaunchError
			if !errors.As(err, &le) {
				// A genuine kernel error is not recoverable by retry.
				b.err = err
				return false
			}
			if full {
				for _, p := range le.Lanes {
					e.laneFailed(s, b.seq, lanes[p], "launch_failure")
				}
			}
		} else {
			e.met.timeouts.Inc()
			if e.log != nil {
				e.log.Warn("launch timeout",
					"dpu", s.ids[lanes[slowest]], "shard", s.id, "seq", b.seq,
					"modeled_s", float64(mx)/clock, "cutoff_s", e.rel.LaunchTimeout)
			}
			e.laneFailed(s, b.seq, lanes[slowest], "timeout")
		}
		if full {
			e.met.quarantined.Set(int64(e.health.QuarantinedCount()))
		}
		if attempt >= uint64(e.rel.MaxRetries) {
			e.degrade(s, b)
			return false
		}
		b.retries++
		e.met.launchRetries.Inc()
		b.tcomp += e.rel.backoff(attempt + 1)
	}
}

// launch runs phase phi of the batch's plan as one shard launch, chunk
// off+j on lanes[j], and reduces the lanes' closed-form cycle deltas
// (kept in s.deltas) to the slowest lane's — the batch's critical
// path. It is the engine's only launch and its only launch accountant:
// each lane's accounting is snapshotted into s.cores before the launch
// and turned into the launch's per-lane delta after it, which the
// installed profiling sinks read directly.
func (e *Engine) launch(s *shard, b *batch, phi int, attempt uint64, lanes []int, off int, stage string) (mx uint64, slowest int, err error) {
	ids := s.launchIDs[:0]
	for j, k := range lanes {
		d := s.dpus[k]
		ids = append(ids, s.ids[k])
		s.chunkOf[k] = off + j
		s.cores[j] = pimsim.CoreProfile{
			Cycles: d.Cycles(), IssueCycles: d.IssueCycles(), DMACycles: d.DMACycles(), Counters: d.Counters(),
		}
	}
	s.launchIDs = ids
	s.ex, s.phase = b.plan.ex, phi
	err = e.sys.LaunchShardSeq(b.seq, attempt, ids, s.kernel)
	for j, k := range lanes {
		d, cp := s.dpus[k], &s.cores[j]
		now := d.Counters()
		for cl := range now.Ops {
			now.Ops[cl] -= cp.Counters.Ops[cl]
			now.Cycles[cl] -= cp.Counters.Cycles[cl]
		}
		*cp = pimsim.CoreProfile{
			DPU: s.ids[k], Tasklets: d.Tasklets(),
			Cycles:      d.Cycles() - cp.Cycles,
			IssueCycles: d.IssueCycles() - cp.IssueCycles,
			DMACycles:   d.DMACycles() - cp.DMACycles,
			Counters:    now,
		}
		c := pimsim.ClosedFormCycles(cp.IssueCycles, cp.DMACycles, cp.Tasklets)
		s.deltas[j] = c
		if c > mx {
			mx, slowest = c, j
		}
	}
	rec := pimsim.LaunchProfile{Cores: s.cores[:len(lanes)]}
	if e.kprof != nil {
		e.kprof.observe(rec)
	}
	if e.prof != nil {
		e.profContext(s, b, stage)
		e.prof.Observe(&s.lctx, rec)
	}
	return mx, slowest, err
}

// laneFailed blames local lane k for a failure within batch seq on the
// health tracker, which may quarantine it.
func (e *Engine) laneFailed(s *shard, seq uint64, k int, cause string) {
	s.failedLane[k] = true
	if e.health.RecordFailure(s.ids[k], seq) && e.log != nil {
		e.log.Warn("dpu quarantined",
			"dpu", s.ids[k], "shard", s.id, "seq", seq, "cause", cause)
	}
}

// maybeHedge relaunches the slowest lane's chunk on that lane, through
// launch, when its cycle delta exceeds HedgeRatio × the lane median,
// keeping the cheaper of the two runs (the kernel is idempotent: the
// relaunch rewrites the same outputs). Returns the batch's effective
// slowest-lane cycles.
func (e *Engine) maybeHedge(s *shard, b *batch, lanes []int, per int, mx uint64) uint64 {
	if e.rel.HedgeRatio <= 1 || len(lanes) < 2 {
		return mx
	}
	deltas := s.deltas[:len(lanes)]
	slowest := 0
	for j := range deltas {
		if deltas[j] > deltas[slowest] {
			slowest = j
		}
	}
	med := medianCycles(deltas, s.medScratch)
	if med == 0 || float64(deltas[slowest]) < e.rel.HedgeRatio*float64(med) {
		return mx
	}
	if slowest*per >= b.n {
		return mx
	}
	// launch reuses s.deltas: take the straggler's run and the other
	// lanes' critical path before relaunching its chunk on its lane.
	orig, others := deltas[slowest], uint64(0)
	for j, c := range deltas {
		if j != slowest && c > others {
			others = c
		}
	}
	// A large attempt bias gives the hedge a fresh, independent draw
	// stream that ordinary retries never reach.
	hedged, _, err := e.launch(s, b, 0, uint64(e.rel.MaxRetries)+1000, lanes[slowest:slowest+1], slowest, "hedge")
	e.met.hedges.Inc()
	b.hedged = true
	if err != nil {
		// The hedge itself failed; the original run's outputs stand.
		return mx
	}
	// The batch's critical path is the slower of the other lanes and
	// the better of the two runs of the straggler's chunk.
	return max(others, min(orig, hedged))
}

// medianCycles computes the lower median of deltas using scratch for
// the sort (insertion sort: lane counts are small). Lower median so a
// single straggler among few lanes cannot drag the reference up to
// itself and mask the comparison.
func medianCycles(deltas, scratch []uint64) uint64 {
	sc := scratch[:0]
	sc = append(sc, deltas...)
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && sc[j] < sc[j-1]; j-- {
			sc[j], sc[j-1] = sc[j-1], sc[j]
		}
	}
	return sc[(len(sc)-1)/2]
}

// degrade is the ladder's last rung: re-run the whole bound batch on
// the host mirrors (bit-exact with the device kernels by the
// differential contract) against a throwaway recorder, so no device
// cycles are accounted. Results land in the bound outputs and the
// batch is marked degraded.
func (e *Engine) degrade(s *shard, b *batch) {
	b.plan.ex.HostEval(s.rec)
	b.degraded, b.hostEval = true, true
	e.met.degraded.Inc()
	if e.log != nil {
		fn, method := b.segs[0].req.labels()
		e.log.Warn("batch degraded to host mirror",
			"shard", s.id, "seq", b.seq, "elements", b.n,
			"fn", fn, "method", method, "retries", b.retries)
	}
}

// FaultEvents returns the canonical injected-fault log (nil when
// injection is disabled). For a single-shard engine fed sequentially,
// re-running the same workload under the same plan reproduces the log
// byte for byte; with concurrent shards the retry attempt counts can
// depend on batch routing.
func (e *Engine) FaultEvents() []faultsim.Event {
	if e.inj == nil {
		return nil
	}
	return e.inj.Events()
}

// Health returns the per-DPU health scoreboard (nil when fault
// injection is disabled).
func (e *Engine) Health() []LaneHealth {
	if e.health == nil {
		return nil
	}
	return e.health.Snapshot()
}

// runLane is a shard's launch kernel (bound once as s.kernel): it runs
// the current phase of the launched plan on lane id's chunk, with the
// lane's own classifier arena.
func (s *shard) runLane(ctx *pimsim.Ctx, id int) error {
	ln := id - s.ids[0]
	s.ex.RunLane(ctx, s.phase, s.chunkOf[ln], ln, s.arena[ln], s.fast)
	return nil
}
