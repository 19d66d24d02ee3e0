package pimsim

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// The conversions as they were before NaN and out-of-range inputs were
// pinned: plain int32(a) truncation, whose result for those inputs is
// implementation-defined. On amd64 the pinned forms must match them on
// every input; elsewhere only where int32(a) is defined.

func roundToEven32Unpinned(a float32) int32 {
	i := int32(a)
	frac := a - float32(i)
	switch {
	case frac > 0.5 || (frac == 0.5 && i&1 != 0):
		i++
	case frac < -0.5 || (frac == -0.5 && i&1 != 0):
		i--
	}
	return i
}

func floorToInt32Unpinned(a float32) int32 {
	i := int32(a)
	if float32(i) > a {
		i--
	}
	return i
}

// sweepStride is the step of the bit-pattern sweeps: 1 (every one of
// the 2^32 float32 patterns) normally, and under -short or the race
// detector a prime stride that still lands in every exponent of both
// signs.
func sweepStride() uint64 {
	if testing.Short() || raceEnabled {
		return 65521
	}
	return 1
}

// sweep32 splits the stride-th 32-bit patterns into contiguous shards,
// one per GOMAXPROCS, and runs shard(lo, hi, stride) on each
// concurrently. Each shard's loop calls the conversions directly, not
// through a func value, which keeps the full sweep to tens of seconds.
func sweep32(shard func(lo, hi, stride uint64)) {
	const total = uint64(1) << 32
	stride := sweepStride()
	shards := uint64(runtime.GOMAXPROCS(0))
	per := (total/stride + shards - 1) / shards * stride
	var wg sync.WaitGroup
	for lo := uint64(0); lo < total; lo += per {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			shard(lo, hi, stride)
		}(lo, min(lo+per, total))
	}
	wg.Wait()
}

// roundingMismatch reports whether the pinned and unpinned conversions
// disagree on a, ignoring inputs whose int32 conversion Go leaves
// implementation-defined unless the host is amd64 (where the pinned
// values come from).
func roundingMismatch(a float32) bool {
	if runtime.GOARCH != "amd64" && !(a >= -(1<<31) && a < 1<<31) {
		return false
	}
	return RoundToEven32(a) != roundToEven32Unpinned(a) || FloorToInt32(a) != floorToInt32Unpinned(a)
}

func TestRoundingConversionsMatchUnpinned(t *testing.T) {
	var mu sync.Mutex
	var bad []float32
	note := func(a float32) {
		mu.Lock()
		defer mu.Unlock()
		bad = append(bad, a)
	}
	for k := float32(0); k < 1<<23; k = k*3 + 1 { // ±(k+0.5) ties
		for _, a := range []float32{k + 0.5, -k - 0.5} {
			if roundingMismatch(a) {
				note(a)
			}
		}
	}
	sweep32(func(lo, hi, stride uint64) {
		for v := lo; v < hi; v += stride {
			if a := math.Float32frombits(uint32(v)); roundingMismatch(a) {
				note(a)
				return // one per shard is enough
			}
		}
	})
	for _, a := range bad {
		t.Errorf("x=%g (%#08x): RoundToEven32 %d (unpinned %d), FloorToInt32 %d (unpinned %d)",
			a, math.Float32bits(a), RoundToEven32(a), roundToEven32Unpinned(a),
			FloorToInt32(a), floorToInt32Unpinned(a))
	}
}

// TestRoundingConversionSpecials pins the inputs whose int32
// conversion Go leaves implementation-defined, on every platform.
func TestRoundingConversionSpecials(t *testing.T) {
	const minI, maxI = math.MinInt32, math.MaxInt32
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		in           float32
		round, floor int32
	}{
		{nan, minI, minI},
		{-nan, minI, minI},
		{inf, minI + 1, minI},
		{-inf, maxI, maxI},
		{1 << 31, minI + 1, minI},
		{-(1 << 31), minI, minI},
		{math.MaxFloat32, minI + 1, minI},
		{-math.MaxFloat32, maxI, maxI},
		{2147483520, 2147483520, 2147483520}, // largest float32 below 2^31
		{math.SmallestNonzeroFloat32, 0, 0},
		{-math.SmallestNonzeroFloat32, 0, -1},
		{math.Float32frombits(0x007FFFFF), 0, 0}, // largest subnormal
		{-2.5, -2, -3},
		{2.5, 2, 2},
	}
	ctx := NewDPU(0, Default(), 1).NewCtx()
	for _, c := range cases {
		if got := RoundToEven32(c.in); got != c.round {
			t.Errorf("RoundToEven32(%g) = %d, want %d", c.in, got, c.round)
		}
		if got := FloorToInt32(c.in); got != c.floor {
			t.Errorf("FloorToInt32(%g) = %d, want %d", c.in, got, c.floor)
		}
		if got := ctx.FToIRound(c.in); got != c.round {
			t.Errorf("Ctx.FToIRound(%g) = %d, want %d", c.in, got, c.round)
		}
		if got := ctx.FToIFloor(c.in); got != c.floor {
			t.Errorf("Ctx.FToIFloor(%g) = %d, want %d", c.in, got, c.floor)
		}
	}
	for _, c := range []struct {
		in   float32
		want int32
	}{{nan, minI}, {inf, minI}, {-inf, minI}, {1 << 31, minI}, {-(1 << 31), minI}, {-2.5, -2}} {
		if got := ctx.FToITrunc(c.in); got != c.want {
			t.Errorf("Ctx.FToITrunc(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}
