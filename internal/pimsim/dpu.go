package pimsim

import (
	"fmt"
	"math"

	"transpimlib/internal/fixed"
	"transpimlib/internal/fpbits"
)

// Architectural constants of the simulated PIM core, matching the
// UPMEM DPU (§2.1 of the paper).
const (
	DefaultMRAMSize = 64 << 20 // 64 MB DRAM bank per PIM core
	DefaultWRAMSize = 64 << 10 // 64 KB scratchpad per PIM core
	DefaultIRAMSize = 24 << 10 // 24 KB instruction memory (informational)

	// PipelineDepth is the minimum issue distance, in cycles, between
	// two instructions of the same tasklet (the UPMEM "revolver"
	// pipeline needs ≥11 resident tasklets for full throughput).
	PipelineDepth = 11

	// DefaultTasklets is the number of PIM threads per core used in the
	// paper's experiments (§4.3: "16 PIM threads each").
	DefaultTasklets = 16

	// DefaultClockHz is the PIM core clock (350 MHz, §4.1).
	DefaultClockHz = 350e6
)

// DPU is one simulated PIM core together with its private memories and
// cycle/operation accounting.
type DPU struct {
	ID   int
	MRAM *Mem
	WRAM *Mem

	model    CostModel
	tasklets int

	issueCycles uint64 // pipeline-issue cycles charged by Ctx ops
	dmaCycles   uint64 // DMA-engine busy cycles (MRAM transfers)
	counters    Counters
}

// NewDPU creates a PIM core with the given cost model and resident
// tasklet count.
func NewDPU(id int, model CostModel, tasklets int) *DPU {
	if tasklets <= 0 {
		tasklets = DefaultTasklets
	}
	return &DPU{
		ID:       id,
		MRAM:     NewMem(fmt.Sprintf("mram[%d]", id), DefaultMRAMSize, 8),
		WRAM:     NewMem(fmt.Sprintf("wram[%d]", id), DefaultWRAMSize, 4),
		model:    model,
		tasklets: tasklets,
	}
}

// Model returns the DPU's cost model.
func (d *DPU) Model() CostModel { return d.model }

// Tasklets returns the number of resident PIM threads.
func (d *DPU) Tasklets() int { return d.tasklets }

// IssueCycles returns the raw pipeline-issue cycles charged so far,
// before the pipeline-occupancy correction.
func (d *DPU) IssueCycles() uint64 { return d.issueCycles }

// DMACycles returns the cycles the DMA engine has been busy.
func (d *DPU) DMACycles() uint64 { return d.dmaCycles }

// Cycles returns the modeled total execution cycles:
//
//	max(issue × max(1, PipelineDepth/tasklets), dma)
//
// With ≥11 tasklets the pipeline sustains one instruction per cycle, so
// total cycles equal charged issue cycles; with fewer tasklets the
// pipeline stalls between instructions of the same thread. DMA latency
// is overlapped with execution and only surfaces when the DMA engine is
// the bottleneck — which is how the paper's observation that MRAM- and
// WRAM-resident LUTs perform alike (§4.2.1, observation 4) emerges.
func (d *DPU) Cycles() uint64 {
	pipe := d.issueCycles
	if d.tasklets < PipelineDepth {
		pipe = (d.issueCycles*PipelineDepth + uint64(d.tasklets) - 1) / uint64(d.tasklets)
	}
	if d.dmaCycles > pipe {
		return d.dmaCycles
	}
	return pipe
}

// Seconds converts Cycles to wall time at the given core clock.
func (d *DPU) Seconds(clockHz float64) float64 {
	return float64(d.Cycles()) / clockHz
}

// Counters returns a copy of the per-class operation counters.
func (d *DPU) Counters() Counters { return d.counters }

// ResetCycles zeroes all cycle and operation accounting but leaves
// memory contents intact (like rereading a hardware counter).
func (d *DPU) ResetCycles() {
	d.issueCycles = 0
	d.dmaCycles = 0
	d.counters = Counters{}
}

// Ctx is the execution context a kernel uses on a DPU. Every method
// both performs the real computation and charges the cycle cost of the
// equivalent instruction sequence on the PIM core.
//
// A Ctx is not safe for concurrent use; a kernel runs single-threaded
// per DPU and models tasklet-level parallelism through the DPU's
// pipeline-occupancy correction.
type Ctx struct {
	d *DPU
	m CostModel

	// dma is the reusable staging buffer for MramRead/MramWrite, so the
	// simulated bulk DMAs do not allocate on every call.
	dma []byte
}

// NewCtx returns an execution context for d.
func (d *DPU) NewCtx() *Ctx { return &Ctx{d: d, m: d.model} }

// DPU returns the core this context executes on.
func (c *Ctx) DPU() *DPU { return c.d }

func (c *Ctx) charge(class OpClass, cycles int) {
	c.d.issueCycles += uint64(cycles)
	c.d.counters.Ops[class]++
	c.d.counters.Cycles[class] += uint64(cycles)
}

// Charge accounts n cycles of control overhead (loop bookkeeping,
// address arithmetic folded into a macro-op, …).
func (c *Ctx) Charge(n int) { c.charge(OpCtrl, n) }

// CycleCount returns the DPU's current modeled cycle count; kernels use
// it like the UPMEM hardware performance counter (§4.1.1).
func (c *Ctx) CycleCount() uint64 { return c.d.Cycles() }

// --- 32-bit integer ops (native, single cycle) ---

// IAdd returns a+b.
func (c *Ctx) IAdd(a, b int32) int32 { c.charge(OpIALU, c.m.IALU); return a + b }

// ISub returns a-b.
func (c *Ctx) ISub(a, b int32) int32 { c.charge(OpIALU, c.m.IALU); return a - b }

// IShl returns a<<s.
func (c *Ctx) IShl(a int32, s uint) int32 { c.charge(OpIALU, c.m.IALU); return a << s }

// IShr returns the arithmetic shift a>>s.
func (c *Ctx) IShr(a int32, s uint) int32 { c.charge(OpIALU, c.m.IALU); return a >> s }

// IUShr returns the logical shift a>>s.
func (c *Ctx) IUShr(a uint32, s uint) uint32 { c.charge(OpIALU, c.m.IALU); return a >> s }

// IAnd returns a&b.
func (c *Ctx) IAnd(a, b int32) int32 { c.charge(OpIALU, c.m.IALU); return a & b }

// IOr returns a|b.
func (c *Ctx) IOr(a, b int32) int32 { c.charge(OpIALU, c.m.IALU); return a | b }

// IXor returns a^b.
func (c *Ctx) IXor(a, b int32) int32 { c.charge(OpIALU, c.m.IALU); return a ^ b }

// ICmp compares a and b, returning -1/0/+1.
func (c *Ctx) ICmp(a, b int32) int {
	c.charge(OpIALU, c.m.IALU)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// IMul returns a*b through the emulated 32-bit multiply.
func (c *Ctx) IMul(a, b int32) int32 { c.charge(OpIMul, c.m.IMul); return a * b }

// IDiv returns a/b through the emulated 32-bit divide.
func (c *Ctx) IDiv(a, b int32) int32 { c.charge(OpIDiv, c.m.IDiv); return a / b }

// Branch accounts a conditional branch.
func (c *Ctx) Branch() { c.charge(OpCtrl, c.m.Branch) }

// Move accounts a register move.
func (c *Ctx) Move() { c.charge(OpCtrl, c.m.Move) }

// --- 64-bit integer ops (multi-instruction on the 32-bit datapath) ---

// I64Add returns a+b on the 64-bit emulated path.
func (c *Ctx) I64Add(a, b int64) int64 { c.charge(OpI64, c.m.I64Add); return a + b }

// I64Sub returns a-b on the 64-bit emulated path.
func (c *Ctx) I64Sub(a, b int64) int64 { c.charge(OpI64, c.m.I64Add); return a - b }

// I64Shl returns a<<s on the 64-bit emulated path.
func (c *Ctx) I64Shl(a int64, s uint) int64 { c.charge(OpI64, c.m.I64Shl); return a << s }

// I64Shr returns the arithmetic shift a>>s on the 64-bit emulated path.
func (c *Ctx) I64Shr(a int64, s uint) int64 { c.charge(OpI64, c.m.I64Shr); return a >> s }

// I64Neg returns -a.
func (c *Ctx) I64Neg(a int64) int64 { c.charge(OpI64, c.m.I64Add); return -a }

// I64Cmp compares a and b, returning -1/0/+1.
func (c *Ctx) I64Cmp(a, b int64) int {
	c.charge(OpI64, c.m.I64Add)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// --- Q3.28 fixed-point ops ---

// QAdd returns a+b; a native integer add.
func (c *Ctx) QAdd(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(OpIALU, c.m.IALU); return a.Add(b) }

// QSub returns a-b; a native integer subtract.
func (c *Ctx) QSub(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(OpIALU, c.m.IALU); return a.Sub(b) }

// QMul returns the fixed-point product, charged as the emulated 64-bit
// multiply sequence — the paper's "fixed-point multiplications
// [significantly cheaper] than floating-point multiplications" (§4.2.1).
func (c *Ctx) QMul(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(OpI64, c.m.I64Mul); return a.Mul(b) }

// QAbs returns |a| with saturation (Abs(Min) = Max), charged as the
// compare-and-negate pair.
func (c *Ctx) QAbs(a fixed.Q3_28) fixed.Q3_28 { c.charge(OpIALU, 2*c.m.IALU); return a.Abs() }

// QDiv returns the fixed-point quotient, charged as the emulated
// 64-bit shift-divide sequence.
func (c *Ctx) QDiv(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(OpIDiv, c.m.IDiv+4); return a.Div(b) }

// QShr returns a>>s.
func (c *Ctx) QShr(a fixed.Q3_28, s uint) fixed.Q3_28 { c.charge(OpIALU, c.m.IALU); return a.Shr(s) }

// QShl returns a<<s.
func (c *Ctx) QShl(a fixed.Q3_28, s uint) fixed.Q3_28 { c.charge(OpIALU, c.m.IALU); return a.Shl(s) }

// QFromF converts float32 → Q3.28 (an FToI-class conversion).
func (c *Ctx) QFromF(f float32) fixed.Q3_28 {
	c.charge(OpConv, c.m.FToI)
	return fixed.FromFloat32(f)
}

// QToF converts Q3.28 → float32 (an IToF-class conversion).
func (c *Ctx) QToF(q fixed.Q3_28) float32 {
	c.charge(OpConv, c.m.IToF)
	return q.Float32()
}

// --- software floating point ---

// FAdd returns a+b through the emulated float path.
func (c *Ctx) FAdd(a, b float32) float32 { c.charge(OpFAdd, c.m.FAdd); return a + b }

// FSub returns a-b through the emulated float path.
func (c *Ctx) FSub(a, b float32) float32 { c.charge(OpFAdd, c.m.FSub); return a - b }

// FMul returns a*b through the emulated float path.
func (c *Ctx) FMul(a, b float32) float32 { c.charge(OpFMul, c.m.FMul); return a * b }

// FDiv returns a/b through the emulated float path.
func (c *Ctx) FDiv(a, b float32) float32 { c.charge(OpFDiv, c.m.FDiv); return a / b }

// FNeg returns -a (a one-instruction sign-bit flip).
func (c *Ctx) FNeg(a float32) float32 { c.charge(OpFMisc, c.m.FNeg); return -a }

// FAbs returns |a| (a one-instruction mask).
func (c *Ctx) FAbs(a float32) float32 {
	c.charge(OpFMisc, c.m.FNeg)
	return fpbits.FromBits(fpbits.Bits(a) &^ fpbits.SignMask)
}

// FCmp compares a and b, returning -1/0/+1.
func (c *Ctx) FCmp(a, b float32) int {
	c.charge(OpFMisc, c.m.FCmp)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// FToIRound converts a float32 to the nearest int32 (ties to even).
func (c *Ctx) FToIRound(a float32) int32 {
	c.charge(OpConv, c.m.FToI)
	return RoundToEven32(a)
}

// FToITrunc converts a float32 to int32 truncating toward zero.
func (c *Ctx) FToITrunc(a float32) int32 { c.charge(OpConv, c.m.FToI); return truncInt32(a) }

// FToIFloor converts a float32 to int32 rounding toward -∞.
func (c *Ctx) FToIFloor(a float32) int32 {
	c.charge(OpConv, c.m.FToI)
	return FloorToInt32(a)
}

// IToF converts an int32 to float32.
func (c *Ctx) IToF(a int32) float32 { c.charge(OpConv, c.m.IToF); return float32(a) }

// Ldexp returns f×2ⁿ through TransPimLib's custom C99 ldexp (§3.2.2):
// integer manipulation of the exponent field.
func (c *Ctx) Ldexp(f float32, n int) float32 {
	c.charge(OpLdexp, c.m.Ldexp)
	return fpbits.Ldexp(f, n)
}

// Frexp splits f into mantissa ∈ [0.5,1) and exponent; the integer
// bit-field split used by range extension (§2.2.3).
func (c *Ctx) Frexp(f float32) (float32, int) {
	c.charge(OpFrexp, c.m.Frexp)
	return fpbits.Frexp(f)
}

// FBits exposes the raw bit pattern (a free reinterpretation on
// hardware; charged as a move).
func (c *Ctx) FBits(f float32) uint32 { c.charge(OpCtrl, c.m.Move); return fpbits.Bits(f) }

// FFromBits reinterprets bits as float32 (charged as a move).
func (c *Ctx) FFromBits(b uint32) float32 { c.charge(OpCtrl, c.m.Move); return fpbits.FromBits(b) }

// F32ToFix64 converts a float32 to a 64-bit fixed-point value with the
// given number of fractional bits, charged as a float→int conversion
// plus the 64-bit scaling shifts.
func (c *Ctx) F32ToFix64(f float32, frac uint) int64 {
	c.charge(OpConv, c.m.FToI)
	c.charge(OpI64, c.m.I64Shl)
	return int64(float64(f) * float64(uint64(1)<<frac))
}

// Fix64ToF32 converts a 64-bit fixed-point value back to float32,
// charged as the 64-bit scaling shift plus an int→float conversion.
func (c *Ctx) Fix64ToF32(v int64, frac uint) float32 {
	c.charge(OpI64, c.m.I64Shr)
	c.charge(OpConv, c.m.IToF)
	return float32(float64(v) / float64(uint64(1)<<frac))
}

// --- memory access ---

// WramLoadF32 loads a float32 from the scratchpad.
func (c *Ctx) WramLoadF32(addr int) float32 {
	c.charge(OpWRAM, c.m.WRAMLoad)
	return c.d.WRAM.Float32(addr)
}

// WramStoreF32 stores a float32 to the scratchpad.
func (c *Ctx) WramStoreF32(addr int, v float32) {
	c.charge(OpWRAM, c.m.WRAMStore)
	c.d.WRAM.PutFloat32(addr, v)
}

// WramLoadI32 loads an int32 from the scratchpad.
func (c *Ctx) WramLoadI32(addr int) int32 {
	c.charge(OpWRAM, c.m.WRAMLoad)
	return c.d.WRAM.Int32(addr)
}

// WramStoreI32 stores an int32 to the scratchpad.
func (c *Ctx) WramStoreI32(addr int, v int32) {
	c.charge(OpWRAM, c.m.WRAMStore)
	c.d.WRAM.PutInt32(addr, v)
}

// WramLoadI64 loads an int64 from the scratchpad (two word accesses).
func (c *Ctx) WramLoadI64(addr int) int64 {
	c.charge(OpWRAM, 2*c.m.WRAMLoad)
	return c.d.WRAM.Int64(addr)
}

// MramLoadF32 loads a float32 from the DRAM bank through the DMA
// engine. The issuing instruction occupies the pipeline briefly; the
// transfer occupies the DMA engine, overlapped with other tasklets.
func (c *Ctx) MramLoadF32(addr int) float32 {
	c.mramAccess(8) // minimum DMA granularity is 8 bytes
	return c.d.MRAM.Float32(addr)
}

// MramStoreF32 stores a float32 to the DRAM bank through the DMA engine.
func (c *Ctx) MramStoreF32(addr int, v float32) {
	c.mramAccess(8)
	c.d.MRAM.PutFloat32(addr, v)
}

// MramLoadI32 loads an int32 from the DRAM bank.
func (c *Ctx) MramLoadI32(addr int) int32 {
	c.mramAccess(8)
	return c.d.MRAM.Int32(addr)
}

// MramLoadI64 loads an int64 from the DRAM bank.
func (c *Ctx) MramLoadI64(addr int) int64 {
	c.mramAccess(8)
	return c.d.MRAM.Int64(addr)
}

// MramRead models a bulk DMA of n bytes (a kernel streaming its operand
// chunk from the DRAM bank into the scratchpad, §4.1.1) and copies the
// bytes into the scratchpad at wramAddr.
func (c *Ctx) MramRead(mramAddr, wramAddr, n int) {
	c.mramAccess(n)
	buf := c.dmaBuf(n)
	c.d.MRAM.Read(mramAddr, buf)
	c.d.WRAM.Write(wramAddr, buf)
}

// MramWrite models a bulk DMA of n bytes from scratchpad to DRAM bank.
func (c *Ctx) MramWrite(wramAddr, mramAddr, n int) {
	c.mramAccess(n)
	buf := c.dmaBuf(n)
	c.d.WRAM.Read(wramAddr, buf)
	c.d.MRAM.Write(mramAddr, buf)
}

// dmaBuf returns the Ctx's staging buffer sized to n bytes, growing it
// when a larger DMA comes through. The contents are fully overwritten
// by the caller before use.
func (c *Ctx) dmaBuf(n int) []byte {
	if cap(c.dma) < n {
		c.dma = make([]byte, n)
	}
	return c.dma[:n]
}

func (c *Ctx) mramAccess(bytes int) {
	c.charge(OpMRAM, c.m.MRAMIssue)
	c.d.dmaCycles += uint64(c.m.MRAMLatency) + uint64(float64(bytes)*c.m.MRAMPerByte)
}

// RoundToEven32 converts a float32 to the nearest int32, ties to even,
// matching the conversion sequence the software float library performs.
// It is the unmetered value function behind Ctx.FToIRound, exported so
// host-side mirrors of device kernels reproduce the exact conversion.
// Inputs outside the int32 range give the values truncInt32 pins:
// MinInt32 for NaN, MinInt32+1 for a ≥ 2^31, MaxInt32 for a < -2^31.
func RoundToEven32(a float32) int32 {
	i := truncInt32(a)
	frac := a - float32(i)
	switch {
	case frac > 0.5 || (frac == 0.5 && i&1 != 0):
		i++
	case frac < -0.5 || (frac == -0.5 && i&1 != 0):
		i--
	}
	return i
}

// FloorToInt32 converts a float32 to int32 rounding toward -∞; the
// unmetered value function behind Ctx.FToIFloor. NaN and a ≥ 2^31 give
// MinInt32, a < -2^31 gives MaxInt32.
func FloorToInt32(a float32) int32 {
	i := truncInt32(a)
	if float32(i) > a {
		i--
	}
	return i
}

// truncInt32 is int32(a) with the results Go leaves implementation-
// defined — NaN, a ≥ 2^31 and a < -2^31 — pinned to MinInt32, the
// "integer indefinite" amd64's CVTTSS2SL returns (arm64 saturates
// instead), so the conversions above give the same bits on every host.
func truncInt32(a float32) int32 {
	if a >= -(1<<31) && a < 1<<31 {
		return int32(a)
	}
	return math.MinInt32
}

// Placement selects which PIM memory holds a lookup table or constant
// array: the 64-KB scratchpad or the core's DRAM bank. §4.2.1
// (observation 4) compares the two.
type Placement int

// Table placement options.
const (
	InWRAM Placement = iota // scratchpad
	InMRAM                  // DRAM bank
)

// String returns the placement name.
func (p Placement) String() string {
	if p == InWRAM {
		return "wram"
	}
	return "mram"
}

// MemFor returns the DPU memory corresponding to the placement.
func (d *DPU) MemFor(p Placement) *Mem {
	if p == InWRAM {
		return d.WRAM
	}
	return d.MRAM
}

// ChargeDMA accounts a bulk MRAM↔WRAM DMA of the given size without
// moving bytes — for kernels that stream operand chunks through the
// scratchpad but keep their working data in the host-side arrays.
func (c *Ctx) ChargeDMA(bytes int) { c.mramAccess(bytes) }

// LoadStreamedF32 reads a float32 the kernel previously streamed into
// the scratchpad with a bulk DMA: charged as a scratchpad load, read
// from the DRAM-bank backing store so the data is not duplicated.
func (c *Ctx) LoadStreamedF32(m *Mem, addr int) float32 {
	c.charge(OpWRAM, c.m.WRAMLoad)
	return m.Float32(addr)
}

// StoreStreamedF32 is the symmetric scratchpad store for results that
// a later bulk DMA writes back to the DRAM bank.
func (c *Ctx) StoreStreamedF32(m *Mem, addr int, v float32) {
	c.charge(OpWRAM, c.m.WRAMStore)
	m.PutFloat32(addr, v)
}
