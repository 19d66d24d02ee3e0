package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"transpimlib/internal/pimsim"
)

// batchPair is one (function, params) operator built twice: once with
// its fast path, once forced through the per-element interpreter.
type batchPair struct {
	name       string
	fast, ref  *Operator
	dpuF, dpuR *pimsim.DPU
}

// batchPairs builds every supported function × method × interpolation
// combination (scratchpad placement) as a fast/interpreted pair.
func batchPairs(tb testing.TB) []batchPair {
	var pairs []batchPair
	for _, fn := range Functions() {
		for _, m := range Methods() {
			if !m.Supports(fn) {
				continue
			}
			for _, interp := range []bool{false, true} {
				if interp && !m.SupportsInterp() {
					continue
				}
				p := Params{Method: m, Interp: interp}
				bp := batchPair{name: fmt.Sprintf("%v/%s", fn, p.Label()), dpuF: newDPU(), dpuR: newDPU()}
				var err error
				if bp.fast, err = Build(fn, p, bp.dpuF); err != nil {
					tb.Fatalf("%s: build: %v", bp.name, err)
				}
				if bp.ref, err = Build(fn, p, bp.dpuR); err != nil {
					tb.Fatalf("%s: build ref: %v", bp.name, err)
				}
				bp.ref.DisableFastPath()
				pairs = append(pairs, bp)
			}
		}
	}
	return pairs
}

// FuzzEvalBatchBits is the arbitrary-input half of the fast path's
// correctness contract: on any float32 bit patterns — NaN payloads,
// infinities, subnormals, values far outside every domain — each
// operator's batch kernel must equal per-element interpreted
// evaluation in output bits, issue and DMA cycles, and per-class
// operation counters. The input is a byte string read as little-endian
// uint32 bit patterns (at most 64 of them).
func FuzzEvalBatchBits(f *testing.F) {
	seed := func(xs ...float32) {
		b := make([]byte, 4*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
		}
		f.Add(b)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	seed(0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5, 0.7, -2.5, 2.5)
	seed(nan, -nan, inf, -inf, math.MaxFloat32, -math.MaxFloat32)
	seed(math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007FFFFF))
	seed(1<<31, -(1 << 31), 1<<22, -(1 << 22), 88.7, -87.3, 89, -104, 200, -200)
	seed(float32(math.Ln2/2), float32(-math.Ln2/2), 7.9, -7.9, 8, -8, 100, 1.0/1024)
	pairs := batchPairs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/4, 64)
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		ysF := make([]float32, n)
		ysR := make([]float32, n)
		for _, bp := range pairs {
			bp.dpuF.ResetCycles()
			bp.dpuR.ResetCycles()
			bp.fast.EvalBatch(bp.dpuF.NewCtx(), xs, ysF)
			bp.ref.EvalBatch(bp.dpuR.NewCtx(), xs, ysR)
			for i, x := range xs {
				if math.Float32bits(ysF[i]) != math.Float32bits(ysR[i]) {
					t.Fatalf("%s: x=%g (%#08x): fast %#08x != interpreted %#08x",
						bp.name, x, math.Float32bits(x), math.Float32bits(ysF[i]), math.Float32bits(ysR[i]))
				}
			}
			if got, want := bp.dpuF.IssueCycles(), bp.dpuR.IssueCycles(); got != want {
				t.Fatalf("%s: issue cycles: fast %d != interpreted %d", bp.name, got, want)
			}
			if got, want := bp.dpuF.DMACycles(), bp.dpuR.DMACycles(); got != want {
				t.Fatalf("%s: dma cycles: fast %d != interpreted %d", bp.name, got, want)
			}
			if got, want := bp.dpuF.Counters(), bp.dpuR.Counters(); got != want {
				t.Fatalf("%s: counters diverge:\nfast        %+v\ninterpreted %+v", bp.name, got, want)
			}
		}
	})
}
