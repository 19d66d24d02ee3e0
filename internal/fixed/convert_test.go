package fixed

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// The float64 reference forms the float32 conversions replaced. They
// are the specification: the exhaustive sweeps below prove the float32
// and integer forms bit-identical to them.

func fromFloat32Ref(f float32) Q3_28 { return FromFloat64(float64(f)) }

func float32Ref(q Q3_28) float32 { return float32(q.Float64()) }

// sweepStride is the step of the bit-pattern sweeps: 1 (every one of
// the 2^32 patterns) normally, and under -short or the race detector a
// prime stride that still lands in every exponent of both signs.
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

// firstMismatches collects at most one failing pattern per shard.
type firstMismatches struct {
	mu   sync.Mutex
	bits []uint32
}

func (m *firstMismatches) add(b uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bits = append(m.bits, b)
}

// tieInputs returns the float32 inputs whose Q3.28 scaling lands
// exactly halfway between two integers — s = ±(k + 0.5) for k spread
// over every magnitude below 2^23 — the cases round-half-to-even has
// to get right.
func tieInputs() []float32 {
	var xs []float32
	for k := uint32(0); k < 1<<23; k = k*3 + 1 {
		for _, d := range []uint32{0, 1, 2} {
			s := float32(k+d) + 0.5
			x := s / (1 << FracBits)
			xs = append(xs, x, -x)
		}
	}
	return xs
}

func TestFromFloat32MatchesFloat64Form(t *testing.T) {
	var bad firstMismatches
	for _, f := range tieInputs() {
		if FromFloat32(f) != fromFloat32Ref(f) {
			bad.add(math.Float32bits(f))
		}
	}
	sweep32(func(lo, hi, stride uint64) {
		for v := lo; v < hi; v += stride {
			if f := math.Float32frombits(uint32(v)); FromFloat32(f) != fromFloat32Ref(f) {
				bad.add(uint32(v))
				return
			}
		}
	})
	for _, b := range bad.bits {
		f := math.Float32frombits(b)
		t.Errorf("FromFloat32(%g / %#08x) = %d, float64 form %d", f, b, FromFloat32(f), fromFloat32Ref(f))
	}
}

func TestFloat32MatchesFloat64Form(t *testing.T) {
	var bad firstMismatches
	// int32 → float32 ties: values above 2^24 whose dropped low bits
	// are exactly half a float32 step, for every dropped-bit count.
	for shift := uint(1); shift <= 7; shift++ {
		for _, m := range []int32{1 << 23, 1<<23 + 1, 1<<24 - 1, 0x00ABCDEF | 1<<23} {
			q := Q3_28(m<<shift | 1<<(shift-1))
			for _, q := range []Q3_28{q, -q} {
				if math.Float32bits(q.Float32()) != math.Float32bits(float32Ref(q)) {
					bad.add(uint32(q))
				}
			}
		}
	}
	sweep32(func(lo, hi, stride uint64) {
		for v := lo; v < hi; v += stride {
			if q := Q3_28(int32(uint32(v))); math.Float32bits(q.Float32()) != math.Float32bits(float32Ref(q)) {
				bad.add(uint32(v))
				return
			}
		}
	})
	for _, b := range bad.bits {
		q := Q3_28(int32(b))
		t.Errorf("Q3_28(%d).Float32() = %g, float64 form %g", q, q.Float32(), float32Ref(q))
	}
}

// TestConversionSpecials pins the saturating and NaN conversions to
// explicit values, identical on every platform.
func TestConversionSpecials(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		in   float32
		want Q3_28
	}{
		{nan, Min},
		{-nan, Min},
		{inf, Max},
		{-inf, Min},
		{1 << 31, Max},
		{-(1 << 31), Min},
		{math.MaxFloat32, Max},
		{-math.MaxFloat32, Min},
		{8, Max},
		{-8, Min},
		{math.Float32frombits(0x7F7FFFFF) / (1 << 28), Max},
		{math.SmallestNonzeroFloat32, 0},
		{-math.SmallestNonzeroFloat32, 0},
		{math.Float32frombits(0x007FFFFF), 0}, // largest subnormal
		{1.0 / (1 << 29), 0},                  // 0.5 ulp: tie to even 0
		{3.0 / (1 << 29), 2},                  // 1.5 ulp: tie to even 2
		{-3.0 / (1 << 29), -2},
	}
	for _, c := range cases {
		if got := FromFloat32(c.in); got != c.want {
			t.Errorf("FromFloat32(%g) = %d, want %d", c.in, got, c.want)
		}
		if got := FromFloat64(float64(c.in)); got != c.want {
			t.Errorf("FromFloat64(%g) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := FromFloat64(math.NaN()); got != Min {
		t.Errorf("FromFloat64(NaN) = %d, want Min", got)
	}
	for _, q := range []Q3_28{Min, Max, 0, 1, -1} {
		if got, want := q.Float32(), float32(q.Float64()); got != want {
			t.Errorf("Q3_28(%d).Float32() = %g, want %g", q, got, want)
		}
	}
}

// TestFix64FromFloat32Edges pins the float32 → 64-bit fixed-point
// conversion at the inputs Go leaves implementation-defined — NaN and
// scaled magnitudes at or past 2^63 — to math.MinInt64, and checks the
// values either side of the 2^63 boundary at the CORDIC kernels' 40
// fraction bits.
func TestFix64FromFloat32Edges(t *testing.T) {
	const frac = 40
	edge := float32(1 << (63 - frac)) // f·2^40 = 2^63
	below := math.Nextafter32(edge, 0)
	cases := []struct {
		f    float32
		want int64
	}{
		{float32(math.NaN()), math.MinInt64},
		{float32(math.Inf(1)), math.MinInt64},
		{float32(math.Inf(-1)), math.MinInt64},
		{math.MaxFloat32, math.MinInt64},
		{-math.MaxFloat32, math.MinInt64},
		{edge, math.MinInt64},
		{-edge, math.MinInt64},
		{math.Nextafter32(edge, float32(math.Inf(1))), math.MinInt64},
		{math.Nextafter32(-edge, float32(math.Inf(-1))), math.MinInt64},
		{below, int64(float64(below) * (1 << frac))},
		{-below, -int64(float64(below) * (1 << frac))},
		{0, 0},
		{-1.5, -3 << (frac - 1)},
		{1.0 / 3, int64(float64(float32(1.0/3)) * (1 << frac))},
	}
	for _, c := range cases {
		if got := Fix64FromFloat32(c.f, frac); got != c.want {
			t.Errorf("Fix64FromFloat32(%v, %d) = %d, want %d", c.f, frac, got, c.want)
		}
	}
}
