// Package fixed implements the Q3.28 signed fixed-point format used by
// TransPimLib's fixed-point method variants.
//
// The format matches Section 3.1 of the paper: 1 sign bit, 3 integer
// bits (enough to represent values up to 2π) and 28 fractional bits,
// stored in a two's-complement int32. The representable range is
// [-8, 8) with a resolution of 2⁻²⁸ ≈ 3.7e-9, which the paper notes is
// sufficient to match the accuracy attainable with float32 values.
//
// All operations are pure integer arithmetic so that, on a PIM core
// without native floating point, they map to cheap native instructions
// (except multiplication, which is itself emulated on UPMEM).
package fixed

import "math"

// FracBits is the number of fractional bits in the Q3.28 format.
const FracBits = 28

// One is the fixed-point representation of 1.0.
const One Q3_28 = 1 << FracBits

// Max and Min bound the representable range of Q3.28.
const (
	Max Q3_28 = math.MaxInt32 // ≈ 7.99999999
	Min Q3_28 = math.MinInt32 // -8.0
)

// Q3_28 is a signed fixed-point number with 3 integer bits and 28
// fractional bits. The zero value represents 0.0.
type Q3_28 int32

// Useful constants in Q3.28.
var (
	Pi     = FromFloat64(math.Pi)
	TwoPi  = FromFloat64(2 * math.Pi)
	HalfPi = FromFloat64(math.Pi / 2)
	Ln2    = FromFloat64(math.Ln2)
	E      = FromFloat64(math.E)
)

// FromFloat64 converts a float64 to Q3.28, rounding to nearest and
// saturating at the representable range. NaN converts to Min on every
// platform (Go leaves the NaN → int32 conversion implementation-
// defined; Min is what amd64's CVTTSD2SL has always produced here).
func FromFloat64(f float64) Q3_28 {
	scaled := f * (1 << FracBits)
	switch {
	case scaled >= float64(math.MaxInt32):
		return Max
	case scaled <= float64(math.MinInt32), scaled != scaled:
		return Min
	}
	return Q3_28(math.RoundToEven(scaled))
}

// The float32 conversions below are the per-element hot path of every
// fixed-point kernel (Ctx.QFromF/QToF and the host mirrors), so they
// avoid float64 rounding altogether. math.RoundToEven compiles to
// ROUNDSD on amd64, which only partially writes its destination
// register; in a loop that register still holds the previous
// element's CVTSD2SS result, so every element waits out the full
// latency of the one before it. Scaling by 2^28 and rounding in
// float32 — and converting back through float32(int32) — keeps each
// element independent. Both forms are bit-identical to the float64
// ones (f·2^28 is exact in float32, and float32(int32(q))·2^-28 rounds
// once, like float32(float64(q)/2^28)); the exhaustive tests in
// convert_test.go are the proof, comparing them on all 2^32 inputs.

// FromFloat32 converts a float32 to Q3.28 with the same rounding,
// saturation and NaN rules as FromFloat64.
func FromFloat32(f float32) Q3_28 {
	s := f * (1 << FracBits) // exact: a power-of-two scale
	if !(s > -(1<<31) && s < 1<<31) {
		if s > 0 {
			return Max
		}
		return Min // s ≤ -2^31, or NaN
	}
	// Round half to even. Below 2^23 in magnitude, adding ±2^23 moves
	// s into the binade where the float32 spacing is exactly 1, so the
	// add rounds to the nearest integer (ties to even) and the subtract
	// is exact. At or above 2^23, s is already an integer and the magic
	// is zeroed out: a select on bits, not a data-dependent branch.
	b := math.Float32bits(s)
	magic := b&(1<<31) | 0x4B000000 // ±2^23 with the sign of s
	magic &^= uint32(int32(0x4AFFFFFF-b&0x7FFFFFFF) >> 31)
	m := math.Float32frombits(magic)
	return Q3_28(int32((s + m) - m))
}

// FromInt converts a small integer to Q3.28, saturating out-of-range
// values.
func FromInt(i int) Q3_28 {
	if i >= 8 {
		return Max
	}
	if i < -8 {
		return Min
	}
	return Q3_28(i) << FracBits
}

// Float64 converts q to float64. The conversion is exact: every Q3.28
// value is representable as a float64.
func (q Q3_28) Float64() float64 { return float64(q) / (1 << FracBits) }

// Float32 converts q to the nearest float32: the int32 → float32
// conversion rounds once and the 2^-28 scale is exact, so the result
// equals float32(q.Float64()).
func (q Q3_28) Float32() float32 { return float32(int32(q)) * (1.0 / (1 << FracBits)) }

// Add returns q+r with wrap-around two's-complement semantics, exactly
// as a 32-bit integer add instruction behaves on the PIM core.
func (q Q3_28) Add(r Q3_28) Q3_28 { return q + r }

// Sub returns q-r with wrap-around semantics.
func (q Q3_28) Sub(r Q3_28) Q3_28 { return q - r }

// AddSat returns q+r, saturating instead of wrapping on overflow.
func (q Q3_28) AddSat(r Q3_28) Q3_28 {
	s := int64(q) + int64(r)
	return saturate(s)
}

// SubSat returns q-r, saturating instead of wrapping on overflow.
func (q Q3_28) SubSat(r Q3_28) Q3_28 {
	s := int64(q) - int64(r)
	return saturate(s)
}

// Mul returns the fixed-point product q·r, computed with a 64-bit
// intermediate and truncated toward negative infinity (arithmetic
// right shift), the behaviour of the shift-based sequence a PIM core
// executes.
func (q Q3_28) Mul(r Q3_28) Q3_28 {
	return Q3_28((int64(q) * int64(r)) >> FracBits)
}

// MulRound returns the fixed-point product q·r rounded to nearest.
func (q Q3_28) MulRound(r Q3_28) Q3_28 {
	p := int64(q) * int64(r)
	p += 1 << (FracBits - 1)
	return Q3_28(p >> FracBits)
}

// Div returns q/r in fixed point. Division by zero saturates to Max or
// Min depending on the sign of q (and Max for 0/0).
func (q Q3_28) Div(r Q3_28) Q3_28 {
	if r == 0 {
		if q < 0 {
			return Min
		}
		return Max
	}
	return saturate((int64(q) << FracBits) / int64(r))
}

// Shl returns q shifted left by n bits (multiplication by 2ⁿ) with
// wrap-around semantics. n must be in [0, 31].
func (q Q3_28) Shl(n uint) Q3_28 { return q << n }

// Shr returns q arithmetically shifted right by n bits (division by 2ⁿ
// rounding toward negative infinity). n must be in [0, 31].
func (q Q3_28) Shr(n uint) Q3_28 { return q >> n }

// Neg returns -q. Negating Min wraps to Min, matching two's-complement
// hardware.
func (q Q3_28) Neg() Q3_28 { return -q }

// Abs returns the absolute value of q. Abs(Min) saturates to Max.
func (q Q3_28) Abs() Q3_28 {
	if q == Min {
		return Max
	}
	if q < 0 {
		return -q
	}
	return q
}

// Floor returns the largest integer value (as Q3.28) not greater than q.
func (q Q3_28) Floor() Q3_28 { return q &^ (One - 1) }

// Round returns q rounded to the nearest integer value (ties away from
// zero), as Q3.28, saturating on overflow.
func (q Q3_28) Round() Q3_28 {
	if q >= 0 {
		return saturate((int64(q) + 1<<(FracBits-1)) &^ (1<<FracBits - 1))
	}
	return saturate(-((-int64(q) + 1<<(FracBits-1)) &^ (1<<FracBits - 1)))
}

// Int returns the integer part of q, truncated toward zero.
func (q Q3_28) Int() int {
	if q < 0 {
		return -int(-int64(q) >> FracBits)
	}
	return int(q >> FracBits)
}

// Frac returns the fractional part of q, with the same sign as q, such
// that FromInt(q.Int()) + q.Frac() == q for all non-saturating q.
func (q Q3_28) Frac() Q3_28 {
	return q - FromInt(q.Int())
}

// Cmp compares q and r, returning -1, 0 or +1.
func (q Q3_28) Cmp(r Q3_28) int {
	switch {
	case q < r:
		return -1
	case q > r:
		return 1
	}
	return 0
}

// Lerp returns the linear interpolation a + (b-a)·t where t is a
// fixed-point fraction in [0, 1]. It uses one fixed-point multiply.
func Lerp(a, b, t Q3_28) Q3_28 {
	return a + (b - a).Mul(t)
}

func saturate(v int64) Q3_28 {
	switch {
	case v > int64(Max):
		return Max
	case v < int64(Min):
		return Min
	}
	return Q3_28(v)
}
